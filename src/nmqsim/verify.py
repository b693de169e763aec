"""Self-verification suites run by the `verify` CLI subcommand.

quick: physicality and the analytic-vs-eigenvalue concurrence agreement on
every preset, using the primary pipeline only.

full: adds the three independent cross-checks (the brute-force 16-dim
master-equation oracle, Choi-matrix complete positivity, and the
memory-kernel Volterra solution) plus the map factorization test.

Every check runs to completion and reports PASS or FAIL with its measured
number; nothing aborts early.  The hidden corrupt hook flips a sign in the
coefficient-space generator and passes it to the same primary-path call,
so that a broken primary path demonstrably trips the oracle comparison.
"""

from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_general_series, precursor_from_components
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
from .presets import PRESETS, default_grid
from .propagator import TimeGrid, evolve_x_state, slow_solution
from .reconstruction import physicality_deviations, x_matrix

__all__ = ["CheckResult", "run_quick", "run_full"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _corrupted_generator(params: ModelParams, k: int) -> np.ndarray:
    gen = build_generator(params, k)
    gen[1, 2] = -gen[1, 2]  # deliberate sign flip; must trip the checks
    return gen


def _rho_series(params: ModelParams, grid: TimeGrid, corrupt: bool) -> np.ndarray:
    make = _corrupted_generator if corrupt else build_generator
    generators = [make(params, k) for k in (1, 2)]
    return x_matrix(*evolve_x_state(generators, params.nbar, grid.points))


def _physicality_check(name: str, params: ModelParams, grid: TimeGrid, corrupt: bool):
    rho = _rho_series(params, grid, corrupt)
    trace_dev, herm_dev, min_eig = physicality_deviations(rho)
    ok = trace_dev < 1e-9 and herm_dev < 1e-12 and min_eig > -1e-9
    return (
        CheckResult(
            f"physicality[{name}]",
            ok,
            f"trace dev {trace_dev:.2e}, herm dev {herm_dev:.2e}, min eig {min_eig:.2e}",
        ),
        rho,
    )


def _concurrence_check(name: str, rho: np.ndarray):
    try:
        b, c, f = rho[:, 1, 1].real, rho[:, 2, 2].real, rho[:, 0, 3]
        analytic = np.clip(precursor_from_components(b, c, f), 0.0, 1.0)
        general = concurrence_general_series(rho)
        dev = float(np.abs(analytic - general).max())
        return CheckResult(
            f"concurrence-routes[{name}]", dev <= 1e-10, f"max deviation {dev:.2e}"
        )
    except ValueError as exc:
        return CheckResult(f"concurrence-routes[{name}]", False, str(exc))


def run_quick(corrupt: bool = False, grid: TimeGrid | None = None):
    """Physicality plus concurrence-route agreement on all presets."""
    grid = grid or default_grid()
    results = []
    for name, preset in PRESETS.items():
        params = preset.params()
        phys, rho = _physicality_check(name, params, grid, corrupt)
        results.append(phys)
        results.append(_concurrence_check(name, rho))
    return results


_ORACLE_PRESETS = ("fig2", "fig3", "fig6")


def _oracle_check(name: str, grid: TimeGrid, corrupt: bool) -> CheckResult:
    params = PRESETS[name].params()
    primary = _rho_series(params, grid, corrupt)
    full0 = full_initial_state(bell_state(), params.nbar)
    reduced = partial_trace_34(evolve_full(params, full0, grid))
    dev = float(np.abs(primary - reduced).max())
    return CheckResult(f"oracle-equivalence[{name}]", dev <= 1e-8, f"max deviation {dev:.2e}")


def _choi_check(nbar: float) -> CheckResult:
    alphas = (0.5, 1.0, 2.0, 3.5, 5.0)
    times = (0.25, 1.0, 2.5, 5.0, 10.0)
    worst = np.inf
    for alpha in alphas:
        params = ModelParams.from_detunings(
            omega1=10.0, delta1=0.0, delta2=0.0,
            alpha1=alpha, alpha2=alpha, gamma=0.5, nbar=nbar,
        )
        for t in times:
            choi = choi_of_subsystem_map(params, 1, t)
            worst = min(worst, float(np.linalg.eigvalsh(choi).min()))
    return CheckResult(
        f"choi-positivity[nbar={nbar:g}]", worst >= -1e-8, f"min eigenvalue {worst:.2e}"
    )


def _nz_check(corrupt: bool = False, t_end: float = 10.0) -> CheckResult:
    params = PRESETS["fig4"].params()
    gen = (_corrupted_generator if corrupt else build_generator)(params, 1)
    inits = [initial_coefficients(term, params.nbar) for term in (InitialTerm.EE, InitialTerm.EG)]
    devs = {}
    for dt in (2e-3, 1e-3):
        grid = TimeGrid(t_end, int(round(t_end / dt)) + 1)
        # grid by keyword: perfbench/tracer.py reads the step count from it
        nz = solve_nz(gen, np.stack(inits), grid=grid)
        direct = np.stack([slow_solution(gen, init, grid.points) for init in inits], axis=1)
        devs[dt] = float(np.abs(nz - direct).max())
    ratio = devs[2e-3] / devs[1e-3]
    ok = devs[1e-3] <= 2e-4 and 3.5 <= ratio <= 4.5
    return CheckResult(
        "nz-volterra",
        ok,
        f"max deviation {devs[1e-3]:.2e} at dt=1e-3, convergence ratio {ratio:.2f}",
    )


def _factorization_check(name: str, t: float, corrupt: bool) -> CheckResult:
    params = PRESETS[name].params()
    grid = TimeGrid(t, 3)
    primary = _rho_series(params, grid, corrupt)[-1]
    t1 = subsystem_transfer_matrix(params, 1, t)
    t2 = subsystem_transfer_matrix(params, 2, t)
    product = apply_product_map(t1, t2, bell_state())
    dev = float(np.abs(primary - product).max())
    return CheckResult(
        f"map-factorization[{name}]", dev <= 1e-8, f"max deviation {dev:.2e}"
    )


def run_full(corrupt: bool = False, fast: bool = False):
    """All quick checks plus the independent oracles.

    fast shrinks the oracle window so the suite exercises every code path
    in seconds; intended for smoke tests, not for certification.
    """
    grid = TimeGrid(2.0, 201) if fast else default_grid()
    results = run_quick(corrupt, grid=grid)
    for name in _ORACLE_PRESETS:
        results.append(_oracle_check(name, grid, corrupt))
    for nbar in (0.0, 0.2):
        results.append(_choi_check(nbar))
    results.append(_nz_check(corrupt, t_end=2.0 if fast else 10.0))
    results.append(_factorization_check("fig2", 1.0, corrupt))
    return results
