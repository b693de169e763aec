"""End-to-end acceptance checks: one test per product claim.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.  Each test asserts a runtime budget.

Criteria 2 (physicality), 3 (concurrence routes), 4 (master-equation
oracle) and 9 (complete positivity) are not computed here: they are
checks of `nmqsim verify --level full`, which certifies simulate's output.
Their tests read one `run_full()` call, shared through a fixture, print
its line for each of their checks and hold that call to 10 s.
"""

import time

import numpy as np
import pytest

from nmqsim.config import PRESETS, default_grid, preset_params
from nmqsim.entanglement import EventKind, extract_events, markovian_rate
from nmqsim.model import InitialTerm, ModelParams, initial_coefficients
from nmqsim.nzkernel import solve_nz
from nmqsim.pipeline import simulate
from nmqsim.propagator import TimeGrid, slow_solution, x_matrix
from nmqsim.verify import run_full

BELL = 0.5 * np.array([
    [1, 0, 0, 1],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [1, 0, 0, 1],
], dtype=complex)


def report(num, label, ok, detail):
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")


def resonant_params(alpha, gamma, nbar=0.0):
    return ModelParams.from_detunings(
        omega1=10.0, delta1=0.0, delta2=0.0,
        alpha1=alpha, alpha2=alpha, gamma=gamma, nbar=nbar,
    )


def test_criterion_1_initial_state():
    t0 = time.monotonic()
    grid = TimeGrid(10.0, 2)
    c_dev = 0.0
    rho_dev = 0.0
    for name in PRESETS:
        result = simulate(preset_params(name), grid)
        c_dev = max(c_dev, abs(result.series.concurrence[0] - 1.0))
        rho = x_matrix(result.a, result.b, result.c, result.d, result.f)
        rho_dev = max(rho_dev, np.abs(rho[0] - BELL).max())
    elapsed = time.monotonic() - t0
    ok = c_dev <= 1e-12 and rho_dev <= 1e-12 and elapsed < 1.0
    report(1, "initial state", ok,
           f"C(0) dev {c_dev:.2e}, state dev {rho_dev:.2e}, {elapsed:.2f}s")
    assert c_dev <= 1e-12
    assert rho_dev <= 1e-12
    assert elapsed < 1.0


@pytest.fixture(scope="module")
def verify_full():
    """The checks of one `nmqsim verify --level full` call by name, and its seconds."""
    t0 = time.monotonic()
    results = run_full()
    return {res.name: res for res in results}, time.monotonic() - t0


def assert_verify_checks(num, label, names, verify_full):
    results, elapsed = verify_full
    ran = [results[name] for name in names if name in results]
    ok = len(ran) == len(names) and all(res.passed for res in ran) and elapsed < 10.0
    report(num, label, ok, f"{'; '.join(res.line() for res in ran)}; {elapsed:.2f}s")
    assert [res.name for res in ran] == names
    assert all(res.passed for res in ran)
    assert elapsed < 10.0


def test_criterion_2_physicality(verify_full):
    names = [f"physicality[{name}]" for name in PRESETS]
    assert_verify_checks(2, "physicality", names, verify_full)


def test_criterion_3_concurrence_route_equivalence(verify_full):
    names = [f"concurrence-routes[{name}]" for name in PRESETS]
    assert_verify_checks(3, "concurrence routes", names, verify_full)


def test_criterion_4_oracle_equivalence(verify_full):
    names = [f"oracle-equivalence[{name}]" for name in ("fig2", "fig3", "fig6")]
    assert_verify_checks(4, "oracle equivalence", names, verify_full)


def test_criterion_5_memory_kernel_equivalence():
    t0 = time.monotonic()
    params = preset_params("fig4")
    inits = [initial_coefficients(term, params.nbar) for term in InitialTerm]
    worst = {}
    for num_points in (10001, 5001):  # dt = 1e-3 and 2e-3
        grid = TimeGrid(10.0, num_points)
        direct = np.stack([slow_solution(params, 1, init, grid.points) for init in inits], axis=1)
        sol = solve_nz(params, 1, np.stack(inits), grid)
        worst[num_points] = np.abs(sol - direct).max()
    ratio = worst[5001] / worst[10001]
    elapsed = time.monotonic() - t0
    ok = worst[10001] <= 2e-4 and 3.5 <= ratio <= 4.5 and elapsed < 120.0
    report(5, "memory kernel", ok,
           f"dev {worst[10001]:.3e} at dt 1e-3, halving ratio {ratio:.2f}, {elapsed:.1f}s")
    assert worst[10001] <= 2e-4
    assert 3.5 <= ratio <= 4.5
    assert elapsed < 120.0


def test_criterion_6_markovian_rate_numbers():
    t0 = time.perf_counter()
    exact = markovian_rate(resonant_params(3.0, 27.0), 1)
    warm = markovian_rate(resonant_params(3.0, 27.0, nbar=0.2), 1)
    elapsed = time.perf_counter() - t0
    ok = exact == 1.0 / 3.0 and abs(warm - 0.1701) <= 1e-4 and elapsed < 1e-3
    report(6, "memoryless rate", ok,
           f"cold {exact!r}, warm {warm:.6f}, {elapsed * 1e6:.0f}us")
    assert exact == 1.0 / 3.0
    assert abs(warm - 0.1701) <= 1e-4
    assert elapsed < 1e-3


def test_criterion_7_memoryless_limit():
    t0 = time.monotonic()
    grid = TimeGrid(5.0, 1001)
    params = resonant_params(3.0, 27.0)  # alpha/gamma = 1/9: deep in the limit
    strong = simulate(params, grid)
    # Closed-form memoryless reference.  The dissipator
    # gamma (2 L rho L+ - L+L rho - rho L+L) damps the auxiliary atom's
    # amplitude at gamma; eliminating it adiabatically leaves each qubit's
    # amplitude decaying at rate = alpha^2/gamma, its populations at twice that.
    # The Bell-state X state then has |f| = e^{-2 rate t}/2 and
    # sqrt(bc) = e^{-2 rate t}(1 - e^{-2 rate t})/2, so at nbar = 0
    # C(t) = 2(|f| - sqrt(bc)) = e^{-4 rate t}.  The solver's gap to it
    # shrinks as O(rate/gamma) deeper into the limit.
    rate = markovian_rate(params, 1)
    dev = np.abs(strong.series.concurrence - np.exp(-4.0 * rate * grid.points)).max()

    c = strong.series.concurrence
    mask = c > 1e-12
    logc = np.log(c[mask])
    ts = grid.points[mask]
    slope, intercept = np.polyfit(ts, logc, 1)
    resid = logc - (slope * ts + intercept)
    r2 = 1.0 - (resid ** 2).sum() / ((logc - logc.mean()) ** 2).sum()

    elapsed = time.monotonic() - t0
    ok = dev <= 0.05 and r2 >= 0.999 and elapsed < 10.0
    report(7, "memoryless limit", ok,
           f"trajectory dev {dev:.4f} (bound 0.05), R^2 {r2:.7f}, {elapsed:.2f}s")
    assert r2 >= 0.999
    assert elapsed < 10.0
    # the trajectory at (3, 27) sits within 0.041 of e^{-4 rate t}; the
    # wrong exponents e^{-2 rate t} and e^{-8 rate t} miss by over 0.24
    assert dev <= 0.05


def test_criterion_8_death_and_revival_claims():
    t0 = time.monotonic()
    grid = default_grid()
    events = {}
    for name in PRESETS:
        result = simulate(preset_params(name), grid)
        events[name] = extract_events(result.series)

    kinds = {name: [e.kind for e in evs] for name, evs in events.items()}
    fig2_ok = EventKind.DEATH not in kinds["fig2"] and EventKind.FINAL_DEATH not in kinds["fig2"]
    fig3_deaths = [i for i, k in enumerate(kinds["fig3"]) if k is EventKind.DEATH]
    fig3_revivals = [i for i, k in enumerate(kinds["fig3"]) if k is EventKind.REVIVAL]
    fig3_ok = bool(fig3_deaths) and bool(fig3_revivals) and fig3_deaths[0] < fig3_revivals[-1]
    warm_ok = all(
        EventKind.FINAL_DEATH in kinds[name]
        for name in ("fig6", "fig7", "fig8", "fig9", "fig10")
    )
    fig4_ok = EventKind.REVIVAL not in kinds["fig4"]

    elapsed = time.monotonic() - t0
    ok = fig2_ok and fig3_ok and warm_ok and fig4_ok and elapsed < 10.0
    report(8, "death/revival claims", ok,
           f"fig2 {fig2_ok}, fig3 {fig3_ok}, warm finals {warm_ok}, "
           f"fig4 {fig4_ok}, {elapsed:.2f}s")
    assert fig2_ok
    assert fig3_ok
    assert warm_ok
    assert fig4_ok
    assert elapsed < 10.0


def test_criterion_9_complete_positivity(verify_full):
    names = ["choi-positivity[nbar=0]", "choi-positivity[nbar=0.2]"]
    assert_verify_checks(9, "complete positivity", names, verify_full)
