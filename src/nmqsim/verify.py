"""Self-verification suites run by the `verify` CLI subcommand.

Every check reads the primary path the way a user gets it: each preset's
state and concurrence come from :func:`~nmqsim.pipeline.simulate`, the
function that writes ``trajectory.csv``, with its run-health check.

quick: physicality, and the eigenvalue-route concurrence against the
printed concurrence, on every preset.

full: adds the three independent cross-checks (the brute-force 16-dim
master-equation oracle, Choi-matrix complete positivity, and the
memory-kernel Volterra solution) plus the map factorization test.

Every check runs to completion and reports PASS or FAIL with its measured
number; nothing aborts early.  A check whose run raises ArithmeticError
(a failed run-health check among them) or ValueError fails under its own
name with the message, and the others still run.  The package carries no
fault-injection switch: a test in tests/test_config_cli.py replaces
``nmqsim.propagator.build_generator``, the name the closed forms look up,
with one that scales the qubit frequency entries of both coherence blocks.
It shows that a broken primary path trips the oracle comparison, and the
memory-kernel check too: its Volterra solve uses the generator built here,
and its reference is the closed forms that ``simulate`` evaluates.
"""

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .entanglement import concurrence_general_series
from .model import InitialTerm, ModelParams, build_generator, initial_coefficients
from .nzkernel import solve_nz
from .oracle import (
    apply_product_map,
    bell_state,
    choi_of_subsystem_map,
    evolve_full,
    full_initial_state,
    partial_trace_34,
    subsystem_transfer_matrix,
)
from .pipeline import simulate
from .presets import PRESETS, default_grid
from .propagator import TimeGrid, slow_solution, x_matrix

__all__ = ["CheckResult", "run_quick", "run_full"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _checked(name: str, measure, *args) -> CheckResult:
    """Check ``name`` from ``measure(*args)``, which returns (passed, detail).

    A run that raises ArithmeticError or ValueError fails the check with
    its message.
    """
    try:
        passed, detail = measure(*args)
    except (ArithmeticError, ValueError) as exc:
        passed, detail = False, str(exc)
    return CheckResult(name, passed, detail)


def _primary(params: ModelParams, grid: TimeGrid):
    """X-state matrices of ``simulate``'s run, and the concurrence it prints."""
    result = simulate(params, grid)
    rho = x_matrix(result.a, result.b, result.c, result.d, result.f)
    return rho, result.series.concurrence


def physicality_deviations(rhos: np.ndarray):
    """Worst-case physicality deviations over a (n, 4, 4) series.

    Returns (trace deviation, Hermiticity deviation, smallest eigenvalue).
    """
    rhos = np.asarray(rhos)
    trace_dev = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0).max()
    herm_dev = np.abs(rhos - np.conj(np.swapaxes(rhos, -2, -1))).max()
    herm = 0.5 * (rhos + np.conj(np.swapaxes(rhos, -2, -1)))
    min_eig = np.linalg.eigvalsh(herm).min()
    return float(trace_dev), float(herm_dev), float(min_eig)


def _physicality(primary):
    trace_dev, herm_dev, min_eig = physicality_deviations(primary()[0])
    ok = trace_dev < 1e-9 and herm_dev < 1e-12 and min_eig > -1e-9
    return ok, f"trace dev {trace_dev:.2e}, herm dev {herm_dev:.2e}, min eig {min_eig:.2e}"


def _concurrence_routes(primary):
    rho, printed = primary()
    dev = float(np.abs(printed - concurrence_general_series(rho)).max())
    return dev <= 1e-10, f"max deviation {dev:.2e}"


def run_quick(grid: TimeGrid | None = None):
    """Physicality plus concurrence-route agreement on all presets."""
    grid = grid or default_grid()
    results = []
    for name, preset in PRESETS.items():
        # one run shared by both checks; a run that raises raises for each
        primary = cache(partial(_primary, preset.params(), grid))
        results.append(_checked(f"physicality[{name}]", _physicality, primary))
        results.append(_checked(f"concurrence-routes[{name}]", _concurrence_routes, primary))
    return results


_ORACLE_PRESETS = ("fig2", "fig3", "fig6")


def _oracle_equivalence(name: str, grid: TimeGrid):
    params = PRESETS[name].params()
    primary, _ = _primary(params, grid)
    full0 = full_initial_state(bell_state(), params.nbar)
    reduced = partial_trace_34(evolve_full(params, full0, grid))
    dev = float(np.abs(primary - reduced).max())
    return dev <= 1e-8, f"max deviation {dev:.2e}"


def _choi_positivity(nbar: float):
    alphas = (0.5, 1.0, 2.0, 3.5, 5.0)
    times = (0.25, 1.0, 2.5, 5.0, 10.0)
    worst = np.inf
    for alpha in alphas:
        params = ModelParams.from_detunings(
            omega1=10.0, delta1=0.0, delta2=0.0,
            alpha1=alpha, alpha2=alpha, gamma=0.5, nbar=nbar,
        )
        chois = choi_of_subsystem_map(params, 1, times)
        worst = min(worst, float(np.linalg.eigvalsh(chois).min()))
    return worst >= -1e-8, f"min eigenvalue {worst:.2e}"


def _nz_volterra(t_end: float):
    params = PRESETS["fig4"].params()
    gen = build_generator(params, 1)
    inits = [initial_coefficients(term, params.nbar) for term in (InitialTerm.EE, InitialTerm.EG)]
    devs = {}
    for dt in (2e-3, 1e-3):
        grid = TimeGrid(t_end, int(round(t_end / dt)) + 1)
        # grid by keyword: perfbench/tracer.py reads the step count from it
        nz = solve_nz(gen, np.stack(inits), grid=grid)
        direct = np.stack([slow_solution(params, 1, init, grid.points) for init in inits], axis=1)
        devs[dt] = float(np.abs(nz - direct).max())
    ratio = devs[2e-3] / devs[1e-3]
    ok = devs[1e-3] <= 2e-4 and 3.5 <= ratio <= 4.5
    return ok, f"max deviation {devs[1e-3]:.2e} at dt=1e-3, convergence ratio {ratio:.2f}"


def _map_factorization(name: str, t: float):
    params = PRESETS[name].params()
    primary = _primary(params, TimeGrid(t, 3))[0][-1]
    t1 = subsystem_transfer_matrix(params, 1, t)
    t2 = subsystem_transfer_matrix(params, 2, t)
    product = apply_product_map(t1, t2, bell_state())
    dev = float(np.abs(primary - product).max())
    return dev <= 1e-8, f"max deviation {dev:.2e}"


def run_full(fast: bool = False):
    """All quick checks plus the independent oracles.

    fast shrinks the oracle window so the suite exercises every code path
    in seconds; intended for smoke tests, not for certification.
    """
    grid = TimeGrid(2.0, 201) if fast else default_grid()
    results = run_quick(grid=grid)
    for name in _ORACLE_PRESETS:
        results.append(_checked(f"oracle-equivalence[{name}]", _oracle_equivalence, name, grid))
    for nbar in (0.0, 0.2):
        results.append(_checked(f"choi-positivity[nbar={nbar:g}]", _choi_positivity, nbar))
    results.append(_checked("nz-volterra", _nz_volterra, 2.0 if fast else 10.0))
    results.append(_checked("map-factorization[fig2]", _map_factorization, "fig2", 1.0))
    return results
