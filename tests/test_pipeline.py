"""The one-call simulation front end."""

import numpy as np
import pytest

from nmqsim.model import ModelParams
from nmqsim.pipeline import simulate
from nmqsim.presets import default_grid, preset_params
from nmqsim.propagator import TimeGrid
from nmqsim.reconstruction import physicality_deviations


def test_simulate_shapes_and_initial_state():
    params = preset_params("fig3")
    grid = default_grid()
    result = simulate(params, grid)
    n = grid.num_points
    assert result.rho.shape == (n, 4, 4)
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
    assert physicality_deviations(fast.rho)[1] == 0.0
    assert np.abs(fast.series.concurrence - slow.series.concurrence).max() < 1e-12
