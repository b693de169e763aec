"""Per-qubit responses s(t), u(t) and the X state they build."""

import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from high_precision import high_precision_responses
from nmqsim.model import InitialTerm, ModelParams, build_generator, initial_coefficients
from nmqsim.oracle import apply_product_map, bell_state, subsystem_transfer_matrix
from nmqsim.presets import preset_params
from nmqsim.propagator import (
    TimeGrid,
    evolve_x_state,
    responses,
    slow_solution,
    step_powers,
    x_matrix,
    x_state_from_responses,
)
from nmqsim.verify import physicality_deviations

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
    grid = TimeGrid(10.0, 2001)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 10.0
    assert grid.step == pytest.approx(0.005, abs=1e-15)
    assert len(grid.points) == 2001


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(10.0, 1)
    for t_end in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_end"):
            TimeGrid(t_end, 10)
    # a float or bool count would build a grid whose points linspace rejects
    for count in (5.0, np.float64(5.0), True, "5"):
        with pytest.raises(ValueError, match="num_points"):
            TimeGrid(1.0, count)
    grid = TimeGrid(1.0, np.int64(5))
    assert type(grid.num_points) is int
    assert grid.points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(TypeError):  # the grid has no start time to set
        TimeGrid(0.0, 1.0, 5)


def test_grid_rejects_subnormal_step():
    for t_end in (1e-310, 5e-324):
        with pytest.raises(ValueError, match="smallest normal float"):
            TimeGrid(t_end, 2001)
    assert TimeGrid(2000 * np.finfo(float).tiny, 2001).step >= np.finfo(float).tiny


@pytest.mark.parametrize("first", [
    np.linspace(-1.0, 1.0, 5),  # one row
    np.arange(15.0).reshape(3, 5) / 15.0 - 0.5j,  # a (k, m) stack of rows
    np.eye(4, 5),  # a 4x5 matrix
], ids=["row", "stack", "matrix"])
def test_step_powers_match_sequential_products(first):
    rng = np.random.default_rng(13)
    step_map = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))) / 3.0
    for n in (1, 2, 3, 7, 8, 9):
        powers = step_powers(first, step_map, n)
        assert powers.shape == (n,) + first.shape
        expected = first.astype(complex)
        for j in range(n):
            assert np.abs(powers[j] - expected).max() <= 1e-14
            expected = expected @ step_map
    with pytest.raises(ValueError):
        step_powers(first, step_map, 0)


def test_time_zero_is_identity():
    for name in ("fig2", "fig6"):
        s, u = responses(preset_params(name), 1, [0.0])
        assert abs(s[0] - 1.0) < 1e-15
        assert abs(u[0] - 1.0) < 1e-15


def test_normalization_component_constant():
    # index 0, the thermal reference, never moves: once s and u have
    # decayed, both qubits sit in the thermal state diag(nbar, nbar+1)/w
    params = preset_params("fig6")
    n, w = params.nbar, 2.0 * params.nbar + 1.0
    grid = TimeGrid(400.0 / params.gamma_eff, 101)
    a, b, c, d, f = evolve_x_state(params, grid.points)
    thermal = np.array([n * n, n * (n + 1.0), n * (n + 1.0), (n + 1.0) ** 2]) / w**2
    assert np.abs(np.array([a[-1], b[-1], c[-1], d[-1]]) - thermal).max() < 1e-12
    assert abs(f[-1]) < 1e-12
    assert np.abs(a + b + c + d - 1.0).max() < 1e-12


def test_frozen_fig2_ee_coefficients():
    s, _ = responses(preset_params("fig2"), 1, [1.0])
    assert abs(s[0] - FIG2_EE_T1[1].real) < 1e-9


def test_semigroup_property():
    # exp(B 1.9) = exp(B 1.2) exp(B 0.7): s and u at 1.9 equal column 0 of
    # the product, each factor taken to 50 digits
    params = preset_params("fig3")
    gen = build_generator(params, 1)
    s, u = responses(params, 1, [0.7, 1.9])
    for sl, value in ((slice(1, 5), s[1]), (slice(5, 7), u[1])):
        with mpmath.workdps(50):
            block = mpmath.matrix(gen[sl, sl].tolist())
            product = mpmath.expm(block * mpmath.mpf(1.2)) * mpmath.expm(block * mpmath.mpf(0.7))
            assert abs(value - complex(product[0, 0])) < 1e-12


def test_ode_residual():
    # any entry of exp(C t) for a 2x2 C solves y'' = tr(C) y' - det(C) y
    params = preset_params("fig2")
    block = build_generator(params, 1)[5:7, 5:7]
    dt = 1e-4
    _, u = responses(params, 1, np.arange(1, 2000) * dt)
    first = (u[2:] - u[:-2]) / (2 * dt)
    second = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dt**2
    residual = second - np.trace(block) * first + np.linalg.det(block) * u[1:-1]
    scale = np.abs(np.linalg.det(block) * u).max()
    assert np.abs(residual).max() < 1e-5 * scale


def test_blocks_do_not_mix():
    # the X pattern is structural: no weight ever lands outside it
    params = preset_params("fig7")
    grid = TimeGrid(10.0, 201)
    rho = x_matrix(*evolve_x_state(params, grid.points))
    off = np.ones((4, 4), dtype=bool)
    off[np.arange(4), np.arange(4)] = False
    off[0, 3] = off[3, 0] = False
    assert np.all(rho[:, off] == 0.0)


def test_raising_lowering_trajectories_conjugate():
    # the lowering block {7, 8} is the conjugate of the raising block {5, 6},
    # so its response is conj(u)
    params = preset_params("fig3")
    gen = build_generator(params, 1)
    times = np.linspace(0.0, 10.0, 401)
    _, u = responses(params, 1, times)
    lowering = np.array([scipy.linalg.expm(gen[7:9, 7:9] * t)[0, 0] for t in times])
    assert np.abs(lowering - np.conj(u)).max() < 1e-12


def test_alpha_zero_freezes_populations():
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=2.0, delta2=2.0,
        alpha1=0.0, alpha2=0.0, gamma=0.5, nbar=0.0,
    )
    s, _ = responses(params, 1, TimeGrid(5.0, 51).points)
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
                s, u = responses(params, 1, [t])
                ref_s, ref_u = high_precision_responses(gen, t)
                assert abs(s[0] - ref_s) < 1e-12
                assert abs(u[0] - ref_u) < 1e-12
            grid = TimeGrid(10.0, 201)
            rho = x_matrix(*evolve_x_state(params, grid.points))
            trace_dev, herm_dev, min_eig = physicality_deviations(rho)
            assert trace_dev < 1e-12
            assert herm_dev < 1e-12
            assert min_eig > -1e-12


def test_coherence_magnitude_decays_when_overdamped():
    _, u = responses(preset_params("fig5"), 1, np.linspace(0.5, 3.0, 251))
    mag = np.abs(u)
    assert np.all(np.diff(mag) <= 1e-12)
    assert mag[0] > 0.85 and mag[-1] < 0.37


def test_x_state_from_responses():
    params = preset_params("fig7")
    n, w = params.nbar, 2.0 * params.nbar + 1.0
    times = TimeGrid(10.0, 101).points
    a, b, c, d, f = evolve_x_state(params, times)
    assert all(x.shape == (101,) for x in (a, b, c, d, f))
    (s1, u1), (s2, u2) = responses(params, 1, times), responses(params, 2, times)
    e1, e2 = n / w + s1 * (n + 1.0) / w, n / w + s2 * (n + 1.0) / w
    g1, g2 = n / w - s1 * n / w, n / w - s2 * n / w
    assert np.abs(a - 0.5 * (e1 * e2 + g1 * g2)).max() < 1e-15
    assert np.abs(d - 0.5 * ((1 - e1) * (1 - e2) + (1 - g1) * (1 - g2))).max() < 1e-15
    assert np.array_equal(f, 0.5 * u1 * u2)


def test_x_state_formula_takes_plain_numbers():
    # the continuous-time evaluator feeds the grid's formula Python floats
    params = preset_params("fig7")
    times = TimeGrid(10.0, 101).points
    (s1, u1), (s2, u2) = (responses(params, k, times) for k in (1, 2))
    grid_state = x_state_from_responses(s1, u1, s2, u2, params.nbar)
    for i in (0, 37, 100):
        point = x_state_from_responses(
            float(s1[i]), complex(u1[i]), float(s2[i]), complex(u2[i]), params.nbar
        )
        # the real components agree bitwise; numpy's complex product for f
        # may round its last bit differently from Python's
        assert all(p == g[i] for p, g in zip(point[:4], grid_state))
        assert abs(point[4] - grid_state[4][i]) <= 1e-17


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
    # every sample is its own closed form, accurate to a few ulps for s;
    # u's phase reaches ~100 rad at t = 10, so its rounding is about
    # eps * 100, not a few ulps
    gen = build_generator(LONG_GRID_POINTS[name], 1)
    grid = TimeGrid(10.0, 20001)
    s, u = responses(LONG_GRID_POINTS[name], 1, grid.points)
    for i in (1, 4097, 8193, 16383, 16385, 20000):
        ref_s, ref_u = high_precision_responses(gen, grid.points[i])
        assert abs(s[i] - ref_s) < 2e-15
        assert abs(u[i] - ref_u) < 1e-14


def test_far_times_beside_near_ones_are_quiet():
    # t = 0 runs the divided-difference series, t = 1e20 must not overflow in it
    params = preset_params("fig3")
    init = initial_coefficients(InitialTerm.EE, params.nbar)
    times = [0.0, 1e20]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, u = responses(params, 1, times)
        x_state = evolve_x_state(params, times)
        slow = slow_solution(params, 1, init, times)
    # each time gives what it gives on its own
    for i, t in enumerate(times):
        s_alone, u_alone = responses(params, 1, [t])
        assert s[i] == s_alone[0] and u[i] == u_alone[0]
    assert all(np.all(np.isfinite(x)) for x in x_state)
    assert np.isfinite(slow).all()


def test_symmetric_pairs_evolve_identically():
    params = preset_params("fig8")
    times = TimeGrid(5.0, 101).points
    s1, u1 = responses(params, 1, times)
    s2, u2 = responses(params, 2, times)
    assert np.array_equal(s1, s2)
    assert np.array_equal(u1, u2)
    _, b, c, _, _ = evolve_x_state(params, times)
    assert np.array_equal(b, c)


def test_bad_inputs():
    params = preset_params("fig2")
    with pytest.raises(ValueError):
        responses(params, 1, [])
    with pytest.raises(ValueError):
        responses(params, 1, [0.0, np.nan])
    with pytest.raises(ValueError, match="subsystem index"):
        responses(params, 3, [0.0])


def test_matrix_signatures_raise_type_error():
    # the closed forms take the pair's parameters; a call written for the
    # generator-matrix signatures misses or adds an argument
    params = preset_params("fig2")
    gen = build_generator(params, 1)
    init = initial_coefficients(InitialTerm.EE, params.nbar)
    gens = [gen, build_generator(params, 2)]
    for call in (lambda: responses(gen, [1.0]),
                 lambda: slow_solution(gen, init, [1.0]),
                 lambda: evolve_x_state(gens, params.nbar, [1.0])):
        with pytest.raises(TypeError):
            call()


def test_negative_times_rejected():
    # the slow/fast split of s is bounded only forward in time
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=0.0, delta2=0.0, alpha1=1.0, alpha2=1.0, gamma=0.0, nbar=0.0,
    )
    for times in ([-1.0], [0.0, 1.0, -1e-300]):
        with pytest.raises(ValueError, match=">= 0"):
            responses(params, 1, times)
    assert responses(params, 1, [0.0])[0][0] == 1.0


EPS = np.finfo(float).eps


def test_coherence_where_the_frequency_cancels_sigma():
    # at gamma = 0, delta = 0 and omega = -alpha the fast root m - sigma of C
    # is 0 while the slow one is 2 i alpha: the slow root is formed after the
    # rotation i Im m is removed, so no 0 / 0 arises
    params = ModelParams.from_detunings(
        omega1=-2.0, delta1=0.0, delta2=0.0, alpha1=2.0, alpha2=2.0, gamma=0.0, nbar=0.0,
    )
    gen = build_generator(params, 1)
    times = [0.5, 3.0, 40.0]
    _, u = responses(params, 1, times)
    for t, u_t in zip(times, u):
        assert abs(u_t - high_precision_responses(gen, t)[1]) <= 8.0 * EPS * (1.0 + 4.0 * t)


def test_nbar_enters_s_only_through_gamma_eff():
    # s depends on (gamma, nbar) only through gamma_eff = (2 nbar + 1) gamma
    times = TimeGrid(10.0, 201).points
    cold = ModelParams.from_detunings(
        omega1=10.0, delta1=0.7, delta2=0.7, alpha1=1.5, alpha2=1.5, gamma=1.5, nbar=0.0,
    )
    warm = ModelParams.from_detunings(
        omega1=10.0, delta1=0.7, delta2=0.7, alpha1=1.5, alpha2=1.5, gamma=0.5, nbar=1.0,
    )
    assert cold.gamma_eff == warm.gamma_eff
    s_cold, _ = responses(cold, 1, times)
    s_warm, _ = responses(warm, 1, times)
    assert np.array_equal(s_cold, s_warm)


@pytest.mark.parametrize("nbar", [0.0, 0.2])
def test_series_and_quotient_agree_where_they_meet(nbar):
    # at zero detuning and alpha = gamma_eff / 4, x+ - x- = 3 gamma_eff^2 / 4,
    # so s switches from the series to the difference quotients at
    # t = 2 / (sqrt(3) gamma_eff); both sides match 50-digit exponentials
    gamma_eff = 0.5 * (2.0 * nbar + 1.0)
    params = resonant(0.25 * gamma_eff, 0.5, nbar)
    gen = build_generator(params, 1)
    switch = 2.0 / (np.sqrt(3.0) * gamma_eff)
    times = switch * (1.0 + np.array([-1e-6, -1e-15, 0.0, 1e-15, 1e-6]))
    s, _ = responses(params, 1, times)
    for t, value in zip(times, s):
        assert abs(value - high_precision_responses(gen, t)[0]) <= 2.0 * EPS


def test_stiff_coherence_matches_high_precision():
    # under strong damping the slow eigenvalue of C is a small difference of
    # large numbers, taken here as det / (fast eigenvalue) instead
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=0.3, delta2=0.3, alpha1=2.0, alpha2=2.0, gamma=100.0, nbar=1e3,
    )
    gen = build_generator(params, 1)
    times = [0.01, 1.0, 10.0, 100.0]
    s, u = responses(params, 1, times)
    for t, s_t, u_t in zip(times, s, u):
        ref_s, ref_u = high_precision_responses(gen, t)
        assert abs(s_t - ref_s) <= 4.0 * EPS
        assert abs(u_t - ref_u) <= 4.0 * EPS * (1.0 + 10.0 * t)



@st.composite
def box_points(draw):
    """(params, t) over the values the command line accepts: |alpha| and
    |delta| in [1e-4, 1e4] of either sign, gamma <= 1e4, nbar <= 1e6 and
    |omega| up to 1e6, with pair 2 either a copy of pair 1 or drawn on its
    own.  A third of the draws put pair 1 at or near the zero-detuning
    exceptional point alpha = gamma_eff / 2.  Only the products of t with
    the rates enter, so t is drawn in units of the fastest rate of the two
    pairs, up to 1e6 of them."""
    def log_uniform(low, high):
        return 10.0 ** draw(st.floats(np.log10(low), np.log10(high)))

    def signed(value):
        return value * draw(st.sampled_from([-1.0, 1.0]))

    def pair():
        return {
            "omega": signed(draw(st.sampled_from([10.0, log_uniform(1e-4, 1e6)]))),
            "delta": signed(draw(st.sampled_from([0.0, log_uniform(1e-4, 1e4)]))),
            "alpha": signed(log_uniform(1e-4, 1e4)),
        }

    nbar = draw(st.sampled_from([0.0, log_uniform(1e-4, 1e6)]))
    first = pair()
    if draw(st.integers(0, 2)) == 0:
        first["delta"] = 0.0
        rel = draw(st.sampled_from([0.0, 1e-14, -1e-10, 1e-6, -1e-3]))
        gamma = 2.0 * abs(first["alpha"]) / (2.0 * nbar + 1.0) * (1.0 + rel)
    else:
        gamma = draw(st.sampled_from([0.0, log_uniform(1e-4, 1e4)]))
    second = draw(st.sampled_from([first, pair()]))
    params = ModelParams.from_detunings(
        omega1=first["omega"], omega2=second["omega"],
        delta1=first["delta"], delta2=second["delta"],
        alpha1=first["alpha"], alpha2=second["alpha"], gamma=gamma, nbar=nbar,
    )
    rate = max(_pair_rates(params, k)[2] for k in (1, 2))
    t = draw(st.sampled_from([0.0, log_uniform(1e-3, 1e6)])) / rate
    return params, t


def _pair_rates(params, k):
    """Pair k's rates that bound the rounding of s, of u and of the X state.

    Rounding perturbs the phases of the responses, which grow as t times
    the blocks' oscillation frequencies: at most beat = 2 |alpha| + |delta|
    for s and |omega| + beat for u, whose damping bounds every other error.
    The X state, checked against the oracle's product of two 16x16 pair
    maps whose own error grows with gamma_eff, adds gamma_eff.
    """
    beat = 2.0 * abs(params.coupling(k)) + abs(params.detuning(k))
    omega = abs(params.qubit_frequency(k))
    return beat, omega + beat, omega + params.gamma_eff + beat


@settings(max_examples=150, deadline=None, derandomize=True)
@given(box_points())
def test_accuracy_gate(point):
    # pair k's s and u lie within 8 eps (1 + rate t) of 50-digit
    # exponentials, with pair k's own rates; the X state lies within
    # 16 eps (1 + rate t) of the oracle, with the larger of the two pairs'
    params, t = point
    gens = [build_generator(params, k) for k in (1, 2)]
    # a pair 2 that copies pair 1 evolves identically, so it is checked once
    for k in (1,) if np.array_equal(*gens) else (1, 2):
        s_rate, u_rate, _ = _pair_rates(params, k)
        s, u = responses(params, k, [t])
        ref_s, ref_u = high_precision_responses(gens[k - 1], t)
        assert abs(s[0] - ref_s) <= 8.0 * EPS * (1.0 + s_rate * t)
        assert abs(u[0] - ref_u) <= 8.0 * EPS * (1.0 + u_rate * t)
    state = x_matrix(*evolve_x_state(params, [t]))[0]
    maps = [subsystem_transfer_matrix(params, k, t) for k in (1, 2)]
    oracle = apply_product_map(*maps, bell_state())
    scale = 1.0 + max(_pair_rates(params, k)[2] for k in (1, 2)) * t
    assert np.abs(state - oracle).max() <= 16.0 * EPS * scale
