"""Per-qubit responses s(t), u(t) and the X state they build."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from nmqsim.model import ModelParams, build_generator
from nmqsim.presets import preset_params
from nmqsim.propagator import (
    TAYLOR_TOL,
    TimeGrid,
    cell_responses,
    evolve_x_state,
    responses,
    taylor_degree,
    x_state_from_responses,
)
from nmqsim.reconstruction import physicality_deviations, x_matrix

# reference coefficients for the resonant strongly-coupled scenario,
# excited-excited term at t = 1, from a 250-digit matrix exponential;
# at nbar = 0 component 1 is the population response s(1)
FIG2_EE_T1 = np.array([
    1.0,
    0.3256711746903205,
    0.2202222630466346j,
    0.2319298914396471,
    0.3140877290776193,
    0.0, 0.0, 0.0, 0.0,
], dtype=complex)


def resonant(alpha, gamma, nbar, omega=10.0):
    return ModelParams.from_detunings(
        omega1=omega, delta1=0.0, delta2=0.0,
        alpha1=alpha, alpha2=alpha, gamma=gamma, nbar=nbar,
    )


def test_grid_properties():
    grid = TimeGrid(0.0, 10.0, 2001)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 10.0
    assert grid.step == pytest.approx(0.005, abs=1e-15)
    assert len(grid.points) == 2001


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(5.0, 5.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 5.0, 10)


def test_grid_rejects_subnormal_step():
    for t_end in (1e-310, 5e-324):
        with pytest.raises(ValueError, match="smallest normal float"):
            TimeGrid(0.0, t_end, 2001)
    assert TimeGrid(0.0, 2000 * np.finfo(float).tiny, 2001).step >= np.finfo(float).tiny


def test_time_zero_is_identity():
    for name in ("fig2", "fig6"):
        s, u = responses(build_generator(preset_params(name), 1), [0.0])
        assert abs(s[0] - 1.0) < 1e-15
        assert abs(u[0] - 1.0) < 1e-15


def test_normalization_component_constant():
    # index 0, the thermal reference, never moves: once s and u have
    # decayed, both qubits sit in the thermal state diag(nbar, nbar+1)/w
    params = preset_params("fig6")
    n, w = params.nbar, 2.0 * params.nbar + 1.0
    grid = TimeGrid(0.0, 400.0 / params.gamma_eff, 101)
    a, b, c, d, f = evolve_x_state(
        [build_generator(params, k) for k in (1, 2)], n, grid.points
    )
    thermal = np.array([n * n, n * (n + 1.0), n * (n + 1.0), (n + 1.0) ** 2]) / w**2
    assert np.abs(np.array([a[-1], b[-1], c[-1], d[-1]]) - thermal).max() < 1e-12
    assert abs(f[-1]) < 1e-12
    assert np.abs(a + b + c + d - 1.0).max() < 1e-12


def test_frozen_fig2_ee_coefficients():
    s, _ = responses(build_generator(preset_params("fig2"), 1), [1.0])
    assert abs(s[0] - FIG2_EE_T1[1].real) < 1e-9


def test_semigroup_property():
    # a two-point grid starting at 0.7 composes expm(B 0.7) with expm(B 1.2)
    gen = build_generator(preset_params("fig3"), 1)
    s_direct, u_direct = responses(gen, [1.9])
    s_stepped, u_stepped = responses(gen, [0.7, 1.9])
    assert abs(s_stepped[1] - s_direct[0]) < 1e-12
    assert abs(u_stepped[1] - u_direct[0]) < 1e-12


def test_ode_residual():
    # any entry of exp(C t) for a 2x2 C solves y'' = tr(C) y' - det(C) y
    gen = build_generator(preset_params("fig2"), 1)
    block = gen[5:7, 5:7]
    dt = 1e-4
    _, u = responses(gen, np.arange(1, 2000) * dt)
    first = (u[2:] - u[:-2]) / (2 * dt)
    second = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dt**2
    residual = second - np.trace(block) * first + np.linalg.det(block) * u[1:-1]
    scale = np.abs(np.linalg.det(block) * u).max()
    assert np.abs(residual).max() < 1e-5 * scale


def test_blocks_do_not_mix():
    # the X pattern is structural: no weight ever lands outside it
    params = preset_params("fig7")
    grid = TimeGrid(0.0, 10.0, 201)
    rho = x_matrix(*evolve_x_state(
        [build_generator(params, k) for k in (1, 2)], params.nbar, grid.points
    ))
    off = np.ones((4, 4), dtype=bool)
    off[np.arange(4), np.arange(4)] = False
    off[0, 3] = off[3, 0] = False
    assert np.all(rho[:, off] == 0.0)


def test_raising_lowering_trajectories_conjugate():
    # the lowering block {7, 8} is the conjugate of the raising block {5, 6},
    # so its response is conj(u)
    gen = build_generator(preset_params("fig3"), 1)
    times = np.linspace(0.0, 10.0, 401)
    _, u = responses(gen, times)
    lowering = np.array([scipy.linalg.expm(gen[7:9, 7:9] * t)[0, 0] for t in times])
    assert np.abs(lowering - np.conj(u)).max() < 1e-12


def test_alpha_zero_freezes_populations():
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=2.0, delta2=2.0,
        alpha1=0.0, alpha2=0.0, gamma=0.5, nbar=0.0,
    )
    s, _ = responses(build_generator(params, 1), TimeGrid(0.0, 5.0, 51).points)
    assert np.abs(s - 1.0).max() < 1e-12


def test_exceptional_point_sweep():
    # for zero detuning both blocks are defective at alpha = gamma_eff / 2;
    # s and u must match a 50-digit exponential on both sides and on it
    for nbar in (0.0, 0.2):
        critical = 0.5 * (2.0 * nbar + 1.0) * 0.5
        for rel in (-1e-2, -1e-6, -1e-10, 0.0, 1e-10, 1e-6, 1e-2):
            params = resonant(critical * (1.0 + rel), 0.5, nbar)
            gen = build_generator(params, 1)
            for t in (0.5, 2.0, 10.0):
                s, u = responses(gen, [t])
                with mpmath.workdps(50):
                    ref_s = mpmath.expm(mpmath.matrix(gen[1:5, 1:5].tolist()) * t)[0, 0]
                    ref_u = mpmath.expm(mpmath.matrix(gen[5:7, 5:7].tolist()) * t)[0, 0]
                assert abs(s[0] - float(mpmath.re(ref_s))) < 1e-12
                assert abs(u[0] - complex(ref_u)) < 1e-12
            grid = TimeGrid(0.0, 10.0, 201)
            rho = x_matrix(*evolve_x_state(
                [build_generator(params, k) for k in (1, 2)], nbar, grid.points
            ))
            trace_dev, herm_dev, min_eig = physicality_deviations(rho)
            assert trace_dev < 1e-12
            assert herm_dev < 1e-12
            assert min_eig > -1e-12


def test_coherence_magnitude_decays_when_overdamped():
    gen = build_generator(preset_params("fig5"), 1)
    _, u = responses(gen, np.linspace(0.5, 3.0, 251))
    mag = np.abs(u)
    assert np.all(np.diff(mag) <= 1e-12)
    assert mag[0] > 0.85 and mag[-1] < 0.37


def test_x_state_from_responses():
    params = preset_params("fig7")
    n, w = params.nbar, 2.0 * params.nbar + 1.0
    times = TimeGrid(0.0, 10.0, 101).points
    gens = [build_generator(params, 1), build_generator(params, 2)]
    a, b, c, d, f = evolve_x_state(gens, n, times)
    assert all(x.shape == (101,) for x in (a, b, c, d, f))
    (s1, u1), (s2, u2) = responses(gens[0], times), responses(gens[1], times)
    e1, e2 = n / w + s1 * (n + 1.0) / w, n / w + s2 * (n + 1.0) / w
    g1, g2 = n / w - s1 * n / w, n / w - s2 * n / w
    assert np.abs(a - 0.5 * (e1 * e2 + g1 * g2)).max() < 1e-15
    assert np.abs(d - 0.5 * ((1 - e1) * (1 - e2) + (1 - g1) * (1 - g2))).max() < 1e-15
    assert np.array_equal(f, 0.5 * u1 * u2)


def test_x_state_formula_takes_plain_numbers():
    # the continuous-time evaluator feeds the grid's formula Python floats
    params = preset_params("fig7")
    times = TimeGrid(0.0, 10.0, 101).points
    (s1, u1), (s2, u2) = (responses(build_generator(params, k), times) for k in (1, 2))
    grid_state = x_state_from_responses(s1, u1, s2, u2, params.nbar)
    for i in (0, 37, 100):
        point = x_state_from_responses(
            float(s1[i]), complex(u1[i]), float(s2[i]), complex(u2[i]), params.nbar
        )
        # the real components agree bitwise; numpy's complex product for f
        # may round its last bit differently from Python's
        assert all(p == g[i] for p, g in zip(point[:4], grid_state))
        assert abs(point[4] - grid_state[4][i]) <= 1e-17


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.0425, 0.39, 0.6, 1.0])
def test_taylor_degree_is_smallest_meeting_bound(norm):
    def bound(k):
        return norm ** (k + 1) / math.factorial(k + 1) * math.exp(norm)

    degree = taylor_degree(norm)
    assert bound(degree) <= TAYLOR_TOL
    assert degree == 0 or bound(degree - 1) > TAYLOR_TOL


def test_cell_responses_match_responses_on_the_grid():
    # at grid times the Taylor step is zero: the cell column is the grid's
    params = preset_params("fig6")
    grid = TimeGrid(0.0, 4.0, 401)
    gens = [build_generator(params, k) for k in (1, 2)]
    at = cell_responses(gens, grid)
    (s1, u1), (s2, u2) = (responses(g, grid.points) for g in gens)
    for i in (0, 1, 150, 399):
        got = at(grid.points[i])
        want = (s1[i], u1[i], s2[i], u2[i])
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-15


LONG_GRID_POINTS = {
    "fig3": preset_params("fig3"),
    "fig6": preset_params("fig6"),
    "fig9": preset_params("fig9"),
    "detuned": ModelParams.from_detunings(
        omega1=10.0, delta1=2.0, delta2=2.0, alpha1=3.0, alpha2=3.0, gamma=0.2, nbar=0.0,
    ),
}


@pytest.mark.parametrize("name", list(LONG_GRID_POINTS))
def test_long_grid_matches_high_precision(name):
    # sample i is column 0 of expm(B t_0) times one expm(B 2^j dt) per set
    # bit j of i: 4097, 8193 and 16385 open new doubling levels, and 16383
    # takes the longest product on this grid, 14 factors.  u is a closed
    # form whose phase reaches ~100 rad at t = 10, so its rounding is about
    # eps * 100, not a few ulps
    gen = build_generator(LONG_GRID_POINTS[name], 1)
    grid = TimeGrid(0.0, 10.0, 20001)
    s, u = responses(gen, grid.points)
    with mpmath.workdps(50):
        pop, coh = (mpmath.matrix(gen[sl, sl].tolist()) for sl in (slice(1, 5), slice(5, 7)))
        for i in (1, 4097, 8193, 16383, 16385, 20000):
            t = mpmath.mpf(grid.points[i])
            assert abs(s[i] - float(mpmath.re(mpmath.expm(pop * t)[0, 0]))) < 2e-15
            assert abs(u[i] - complex(mpmath.expm(coh * t)[0, 0])) < 1e-14


def test_symmetric_pairs_evolve_identically():
    params = preset_params("fig8")
    times = TimeGrid(0.0, 5.0, 101).points
    s1, u1 = responses(build_generator(params, 1), times)
    s2, u2 = responses(build_generator(params, 2), times)
    assert np.array_equal(s1, s2)
    assert np.array_equal(u1, u2)
    _, b, c, _, _ = evolve_x_state(
        [build_generator(params, k) for k in (1, 2)], params.nbar, times
    )
    assert np.array_equal(b, c)


def test_bad_inputs():
    gen = build_generator(preset_params("fig2"), 1)
    with pytest.raises(ValueError):
        responses(np.zeros((4, 4)), [0.0])
    with pytest.raises(ValueError):
        responses(gen, [])
    with pytest.raises(ValueError):
        responses(gen, [0.0, np.nan])
