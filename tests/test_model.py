"""Generator construction, the slow-index split and parameter validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmqsim.model import (
    P_INDICES,
    Q_INDICES,
    InitialTerm,
    ModelParams,
    ParameterError,
    build_generator,
    initial_coefficients,
    thermal_state,
)
from nmqsim.entanglement import markovian_rate
from nmqsim.nzkernel import solve_nz
from nmqsim.propagator import TimeGrid, responses


def make_params(alpha=2.0, delta=2.0, gamma=0.5, nbar=0.0, omega1=10.0):
    return ModelParams.from_detunings(
        omega1=omega1, delta1=delta, delta2=delta,
        alpha1=alpha, alpha2=alpha, gamma=gamma, nbar=nbar,
    )


def expected_generator(alpha, delta, omega, omega_aux, gamma_eff):
    # independent transcription of the coefficient equations of motion
    L = np.zeros((9, 9), dtype=complex)
    L[1, 2] = -2j * alpha
    L[2, 1] = -1j * alpha
    L[2, 2] = -gamma_eff
    L[2, 3] = 1j * delta
    L[2, 4] = 1j * alpha
    L[3, 2] = 1j * delta
    L[3, 3] = -gamma_eff
    L[4, 2] = 2j * alpha
    L[4, 4] = -2.0 * gamma_eff
    L[5, 5] = -1j * omega
    L[5, 6] = -1j * alpha
    L[6, 5] = -1j * alpha
    L[6, 6] = -(gamma_eff + 1j * omega_aux)
    L[7:9, 7:9] = np.conj(L[5:7, 5:7])
    return L


def test_generator_matches_equations_of_motion():
    params = make_params(alpha=2.0, delta=2.0, gamma=0.5, nbar=0.2)
    for k in (1, 2):
        L = build_generator(params, k)
        omega, omega_aux, alpha = params.pair(k)
        ref = expected_generator(alpha, omega - omega_aux, omega, omega_aux, params.gamma_eff)
        assert np.array_equal(L, ref)


def test_generator_spot_entries():
    L = build_generator(make_params(alpha=2.0, delta=2.0, gamma=0.5), 1)
    assert L[1, 2] == -4j
    assert L[2, 1] == -2j
    assert L[2, 2] == -0.5
    assert L[2, 3] == 2j
    assert L[5, 5] == -10j
    assert L[6, 6] == -(0.5 + 8j)  # omega_aux = omega1 - delta1 = 8
    assert np.all(L[0] == 0) and np.all(L[:, 0] == 0)


def test_raising_lowering_blocks_conjugate():
    for nbar in (0.0, 0.2):
        L = build_generator(make_params(alpha=3.0, delta=1.5, nbar=nbar), 1)
        assert np.array_equal(L[7:9, 7:9], np.conj(L[5:7, 5:7]))


def test_generator_block_structure():
    L = build_generator(make_params(), 1)
    blocks = [[0], [1, 2, 3, 4], [5, 6], [7, 8]]
    mask = np.zeros((9, 9), dtype=bool)
    for idx in blocks:
        mask[np.ix_(idx, idx)] = True
    assert np.all(L[~mask] == 0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.0, 10.0),
    delta=st.floats(-10.0, 10.0),
    gamma=st.floats(0.01, 10.0),
    nbar=st.floats(0.0, 2.0),
    omega1=st.floats(0.0, 20.0),
)
def test_spectrum_never_amplifies(alpha, delta, gamma, nbar, omega1):
    params = make_params(alpha=alpha, delta=delta, gamma=gamma, nbar=nbar, omega1=omega1)
    eig = np.linalg.eigvals(build_generator(params, 1))
    assert eig.real.max() <= 1e-10


def test_gamma_eff():
    assert make_params(gamma=0.5, nbar=0.0).gamma_eff == 0.5
    assert make_params(gamma=0.5, nbar=0.2).gamma_eff == pytest.approx(0.7, abs=1e-15)


def test_projectors_idempotent_and_complementary():
    # the projectors are the index split itself: P and Q are complementary
    # exactly when the two tuples partition the nine coefficients
    assert sorted(P_INDICES + Q_INDICES) == list(range(9))
    assert P_INDICES == (0, 1, 5, 7)


@pytest.mark.parametrize("k", [0, 3, True, 1.0])
def test_pair_index_must_be_one_or_two(k):
    # True and 1.0 compare equal to 1 but are not pair indices
    params = make_params()
    init = initial_coefficients(InitialTerm.EE, params.nbar)
    for call in (lambda: responses(params, k, [0.0]),
                 lambda: build_generator(params, k),
                 lambda: markovian_rate(params, k),
                 lambda: solve_nz(params, k, init, TimeGrid(1.0, 11))):
        with pytest.raises(ParameterError, match="subsystem index must be 1 or 2"):
            call()


def test_numpy_pair_index_accepted():
    params = make_params()
    assert np.array_equal(build_generator(params, np.int64(2)), build_generator(params, 2))
    assert markovian_rate(params, np.int32(1)) == markovian_rate(params, 1)


def test_thermal_state():
    assert np.array_equal(thermal_state(0.0), np.diag([0.0, 1.0]))
    th = thermal_state(0.2)
    assert np.allclose(th, np.diag([0.2, 1.2]) / 1.4, atol=1e-15)
    assert np.trace(th) == pytest.approx(1.0, abs=1e-15)


def test_initial_coefficients():
    # the four slow components, in P_INDICES order (0, 1, 5, 7)
    ee = initial_coefficients(InitialTerm.EE, 0.0)
    assert ee.shape == (4,)
    assert np.array_equal(ee, [1.0, 1.0, 0.0, 0.0])
    gg = initial_coefficients(InitialTerm.GG, 0.2)
    assert gg[0] == 1.0
    assert gg[1] == pytest.approx(-0.2 / 1.4, abs=1e-15)
    assert np.all(gg[2:] == 0)
    assert np.array_equal(initial_coefficients(InitialTerm.EG, 0.0), [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(initial_coefficients(InitialTerm.GE, 0.0), [0.0, 0.0, 0.0, 1.0])


def test_from_detunings_defaults():
    p = ModelParams.from_detunings(omega1=10.0, delta1=2.0, delta2=2.0,
                                   alpha1=1.0, alpha2=1.0, gamma=0.5, nbar=0.0)
    assert p.omega2 == 10.0
    assert p.omega3 == 8.0 and p.omega4 == 8.0
    for k in (1, 2):
        omega, omega_aux, _ = p.pair(k)
        assert omega - omega_aux == pytest.approx(2.0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_params(gamma=-0.1)
    with pytest.raises(ParameterError):
        make_params(nbar=-0.01)
    with pytest.raises(ParameterError):
        make_params(alpha=float("nan"))
    with pytest.raises(ParameterError):
        make_params(omega1=float("inf"))


def test_subsystem_index_checked():
    params = make_params()
    with pytest.raises(ValueError):
        build_generator(params, 3)
    with pytest.raises(ValueError):
        params.pair(0)
