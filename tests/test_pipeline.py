"""The one-call simulation front end."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from high_precision import high_precision_responses
from nmqsim import propagator
from nmqsim.entanglement import (
    EventKind,
    extract_events,
    precursor_from_components,
    state_certificate,
)
from nmqsim.model import ModelParams, build_generator
from nmqsim.pipeline import RunHealthError, _check_health, simulate
from nmqsim.presets import PRESETS, default_grid, preset_params
from nmqsim.propagator import TimeGrid, evolve_x_state, x_matrix, x_state_from_responses


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


def test_long_grid_refinement_is_quiet():
    # refinement evaluates the responses at times near 0 beside times up to
    # 1e20 in one call, and no numpy warning may escape
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=0.0, delta2=0.0,
        alpha1=0.3, alpha2=0.3, gamma=1.0, nbar=0.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events = extract_events(simulate(params, TimeGrid(1e20, 2001)).series)
    assert [(e.kind, e.precise) for e in events] == [(EventKind.FINAL_DEATH, True)]
    assert events[0].time == pytest.approx(35.7166067515, abs=1e-9)


def test_concurrence_is_clamped_precursor():
    result = simulate(preset_params("fig6"), default_grid())
    clipped = np.clip(result.series.precursor, 0.0, None)
    assert np.array_equal(result.series.concurrence, clipped)


def test_precursor_evaluator_matches_samples():
    params = preset_params("fig7")
    grid = TimeGrid(5.0, 101)
    result = simulate(params, grid)
    at = result.series.precursor_fn
    assert at is not None
    idx = [0, 13, 50, 100]
    values = at(grid.points[idx])
    assert values.shape == (4,)
    assert np.abs(values - result.series.precursor[idx]).max() <= 1e-12


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
    assert state_certificate(x_matrix(fast.a, fast.b, fast.c, fast.d, fast.f))[1] == 0.0
    assert np.abs(fast.series.concurrence - slow.series.concurrence).max() < 1e-12


def single_time_precursor(params):
    """The precursor from one evolve_x_state call at a single time."""
    def at(t):
        _, b, c, _, f = evolve_x_state(params, [t])
        return float(precursor_from_components(b, c, f)[0])

    return at


def reference_precursor(params):
    """The precursor at time t from 50-digit exponentials of both pairs' blocks."""
    gen1, gen2 = (build_generator(params, k) for k in (1, 2))
    same = np.array_equal(gen1, gen2)

    def at(t):
        s1, u1 = high_precision_responses(gen1, t)
        s2, u2 = (s1, u1) if same else high_precision_responses(gen2, t)
        _, b, c, _, f = x_state_from_responses(s1, u1, s2, u2, params.nbar)
        return float(precursor_from_components(b, c, f))

    return at


def assert_precursor_matches_reference(params, grid, seed, extra=()):
    # random times inside random grid cells, near either end of a cell and
    # in its middle, where events are refined
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, grid.num_points - 1, 10)
    times = grid.points[cells] + grid.step * rng.choice([0.03, 0.5, 0.97], 10)
    fast = simulate(params, grid).series.precursor_fn
    reference = reference_precursor(params)
    times = np.concatenate((times, extra))
    worst = np.abs(fast(times) - [reference(t) for t in times]).max()
    assert worst <= 1e-14


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cell_precursor_matches_single_time_evolution(name):
    assert_precursor_matches_reference(preset_params(name), default_grid(), seed=len(name))


@pytest.mark.parametrize("nbar", [0.0, 0.2])
def test_cell_precursor_at_exceptional_point(nbar):
    # zero detuning: both blocks are defective at alpha = gamma_eff / 2; at
    # alpha = gamma_eff / 4 the cells also hold times around
    # t = 2 / (sqrt(3) gamma_eff)
    gamma = 0.5
    gamma_eff = gamma * (2.0 * nbar + 1.0)
    center = 2.0 / (np.sqrt(3.0) * gamma_eff)
    for alpha, extra in (
        (0.5 * gamma_eff, ()),
        (0.5 * gamma_eff * (1.0 - 1e-6), ()),
        (0.25 * gamma_eff, center * (1.0 + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3]))),
    ):
        params = ModelParams.from_detunings(
            omega1=10.0, delta1=0.0, delta2=0.0, alpha1=alpha, alpha2=alpha,
            gamma=gamma, nbar=nbar,
        )
        assert_precursor_matches_reference(params, default_grid(), seed=3, extra=extra)


@pytest.mark.parametrize(
    "omega, gamma, nbar",
    [(1e9, 0.5, 0.2), (10.0, 100.0, 1e3)],
    ids=["huge-frequency", "strong-damping"],
)
def test_cell_precursor_fallback_regime(omega, gamma, nbar):
    # a huge qubit frequency, or strong damping (gamma_eff = 2e5) on a coarse grid
    params = ModelParams.from_detunings(
        omega1=omega, delta1=0.0, delta2=0.0,
        alpha1=2.0, alpha2=2.0, gamma=gamma, nbar=nbar,
    )
    assert_precursor_matches_reference(params, TimeGrid(10.0, 201), seed=5)


def test_health_check_names_each_fault():
    # synthetic components around the maximally mixed state, each breaking
    # one condition of a density matrix by more than HEALTH_TOL
    quarter = np.full(3, 0.25)
    f = np.zeros(3, dtype=complex)
    _check_health(quarter, quarter, quarter, quarter, f)
    shift = np.array([0.0, 0.25 + 1e-6, 0.0])
    faults = [
        ((quarter, quarter - shift, quarter + shift, quarter, f), "negative population -1.000e-06"),
        ((quarter + 1e-6, quarter, quarter, quarter, f), "trace differs from 1 by 1.000e-06"),
        ((quarter, quarter, quarter, quarter, f + 0.25 + 1e-6),
         "|f|^2 exceeds ad by 5.000e-07"),
        ((quarter, quarter, quarter, quarter, f + np.nan), "non-finite X-state component"),
    ]
    for components, message in faults:
        with pytest.raises(RunHealthError) as info:
            _check_health(*components)
        assert str(info.value) == message


def test_primary_path_takes_no_matrix_exponential(monkeypatch):
    # simulate and event refinement use closed forms only: at fig3, at the
    # zero-detuning exceptional point alpha = gamma_eff / 2 and at gamma_eff / 4
    def refuse(*args, **kwargs):
        raise AssertionError("the primary path called scipy.linalg.expm")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    for alpha in (0.25, 0.125):
        params = ModelParams.from_detunings(
            omega1=10.0, delta1=0.0, delta2=0.0, alpha1=alpha, alpha2=alpha,
            gamma=0.5, nbar=0.0,
        )
        extract_events(simulate(params, default_grid()).series)
    events = extract_events(simulate(preset_params("fig3"), default_grid()).series)
    assert len(events) >= 7
    assert "scipy" not in vars(propagator)


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
