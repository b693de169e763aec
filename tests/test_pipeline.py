"""The one-call simulation front end."""

import numpy as np
import pytest
from scipy.optimize import brentq

from nmqsim.entanglement import EventKind, extract_events, precursor_from_components
from nmqsim.model import ModelParams, build_generator
from nmqsim.pipeline import simulate
from nmqsim.presets import PRESETS, default_grid, preset_params
from nmqsim.propagator import TimeGrid, evolve_x_state
from nmqsim.reconstruction import physicality_deviations, x_matrix


def test_simulate_shapes_and_initial_state():
    params = preset_params("fig3")
    grid = default_grid()
    result = simulate(params, grid)
    n = grid.num_points
    assert x_matrix(result.a, result.b, result.c, result.d, result.f).shape == (n, 4, 4)
    for arr in (result.a, result.b, result.c, result.d, result.f):
        assert arr.shape == (n,)
    assert result.series.concurrence[0] == pytest.approx(1.0, abs=1e-12)
    assert result.series.eof[0] == pytest.approx(1.0, abs=1e-12)
    assert result.a[0] == pytest.approx(0.5, abs=1e-12)
    assert result.d[0] == pytest.approx(0.5, abs=1e-12)


def test_concurrence_is_clamped_precursor():
    result = simulate(preset_params("fig6"), default_grid())
    clipped = np.clip(result.series.precursor, 0.0, None)
    assert np.array_equal(result.series.concurrence, clipped)


def test_precursor_evaluator_matches_samples():
    params = preset_params("fig7")
    grid = TimeGrid(0.0, 5.0, 101)
    result = simulate(params, grid)
    at = result.series.precursor_fn
    assert at is not None
    for idx in (0, 13, 50, 100):
        assert at(grid.points[idx]) == pytest.approx(
            result.series.precursor[idx], abs=1e-12
        )


def test_populations_sum_to_one():
    result = simulate(preset_params("fig10"), default_grid())
    total = result.a + result.b + result.c + result.d
    assert np.abs(total - 1.0).max() < 1e-9


def test_extreme_qubit_frequency():
    # omega only sets the phase of f: Hermiticity is exact by construction,
    # and the concurrence is that of the omega = 10 run
    def run(omega):
        params = ModelParams.from_detunings(
            omega1=omega, delta1=0.0, delta2=0.0,
            alpha1=2.0, alpha2=2.0, gamma=0.5, nbar=0.2,
        )
        return simulate(params, default_grid())

    fast, slow = run(1e9), run(10.0)
    assert physicality_deviations(x_matrix(fast.a, fast.b, fast.c, fast.d, fast.f))[1] == 0.0
    assert np.abs(fast.series.concurrence - slow.series.concurrence).max() < 1e-12


def single_time_precursor(params):
    """The precursor from one evolve_x_state call at a single time."""
    generators = [build_generator(params, k) for k in (1, 2)]

    def at(t):
        _, b, c, _, f = evolve_x_state(generators, params.nbar, [t])
        return float(precursor_from_components(b, c, f)[0])

    return at


def assert_precursor_matches_single_time(params, grid, seed):
    # random times visit many cells in turn, each near either end of its
    # cell, so a stale or shifted cell shows as a Taylor step of a whole dt;
    # a walk in steps of 0.7 dt then shows a cell kept beyond its reach
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, grid.num_points - 1, 40)
    times = grid.points[cells] + grid.step * rng.choice([0.0, 0.03, 0.5, 0.97, 1.0], 40)
    times = np.concatenate((times, grid.points[cells[0]] + 0.7 * grid.step * np.arange(12)))
    fast = simulate(params, grid).series.precursor_fn
    reference = single_time_precursor(params)
    worst = max(abs(fast(t) - reference(t)) for t in times)
    assert worst <= 1e-14


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cell_precursor_matches_single_time_evolution(name):
    assert_precursor_matches_single_time(preset_params(name), default_grid(), seed=len(name))


@pytest.mark.parametrize("nbar", [0.0, 0.2])
def test_cell_precursor_at_exceptional_point(nbar):
    # zero detuning with alpha = gamma_eff / 2: both blocks are defective
    gamma = 0.5
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=0.0, delta2=0.0, alpha1=0.25 * gamma * (2.0 * nbar + 1.0),
        alpha2=0.25 * gamma * (2.0 * nbar + 1.0), gamma=gamma, nbar=nbar,
    )
    assert_precursor_matches_single_time(params, default_grid(), seed=3)


@pytest.mark.parametrize(
    "omega, gamma, nbar",
    [(1e9, 0.5, 0.2), (10.0, 100.0, 1e3)],
    ids=["huge-frequency", "strong-damping"],
)
def test_cell_precursor_fallback_regime(omega, gamma, nbar):
    # ||X dt||_1 > 1 here, so every call takes the single-time path
    params = ModelParams.from_detunings(
        omega1=omega, delta1=0.0, delta2=0.0,
        alpha1=2.0, alpha2=2.0, gamma=gamma, nbar=nbar,
    )
    assert_precursor_matches_single_time(params, TimeGrid(0.0, 10.0, 201), seed=5)


@pytest.mark.parametrize("name", ["fig3", "fig6"])
def test_events_match_brent_on_single_time_precursor(name):
    params, grid = preset_params(name), default_grid()
    events = extract_events(simulate(params, grid).series)
    reference = single_time_precursor(params)
    t = grid.points
    assert len(events) >= 7
    for event in events:
        level = 1e-3 if event.kind is EventKind.REVIVAL else 1e-6
        i = int(np.searchsorted(t, event.time)) - 1
        root = brentq(lambda u: reference(u) - level, t[i], t[i + 1], xtol=1e-12)
        assert abs(event.time - root) <= 1e-10
