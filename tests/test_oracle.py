"""Brute-force master-equation reference and channel (Choi) checks.

The oracle never touches the coefficient-space solver, so agreement
between the two is evidence for both.
"""

import numpy as np
import pytest
import scipy.linalg

from nmqsim.model import ModelParams, build_generator, thermal_state
from nmqsim.oracle import (
    apply_product_map,
    bell_state,
    build_full_liouvillian,
    choi_of_subsystem_map,
    evolve_full,
    full_initial_state,
    pair_liouvillian,
    partial_trace_34,
    subsystem_transfer_matrix,
)
from nmqsim.pipeline import simulate
from nmqsim.presets import preset_params
from nmqsim.propagator import TimeGrid, x_matrix

SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # raises |0> to |1> (excited first)
SM = SP.T
SZ = np.diag([1.0, -1.0])


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_liouvillian_preserves_trace():
    rng = np.random.default_rng(5)
    L = build_full_liouvillian(preset_params("fig6"))
    for _ in range(4):
        rho = random_density(rng, 16)
        drho = (L @ rho.reshape(-1)).reshape(16, 16)
        assert abs(np.trace(drho)) < 1e-12


def test_closed_diagonal_states_are_stationary():
    # without coupling or damping the Hamiltonian is diagonal
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=2.0, delta2=2.0,
        alpha1=0.0, alpha2=0.0, gamma=0.0, nbar=0.0,
    )
    L = build_full_liouvillian(params)
    rng = np.random.default_rng(2)
    pops = rng.random(16)
    rho = np.diag(pops / pops.sum()).astype(complex)
    assert np.abs(L @ rho.reshape(-1)).max() < 1e-14


def test_thermal_product_is_stationary_without_coupling():
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=0.0, delta2=0.0,
        alpha1=0.0, alpha2=0.0, gamma=0.5, nbar=0.2,
    )
    L = build_full_liouvillian(params)
    ground = np.diag([0.0, 1.0]).astype(complex)
    rho = np.kron(np.kron(np.kron(ground, ground), thermal_state(0.2)), thermal_state(0.2))
    assert np.abs(L @ rho.reshape(-1)).max() < 1e-14


def explicit_liouvillian(params, sites):
    """The four-atom (or one-pair) master equation written out term by term.

    ``sites`` maps qubit k to its (qubit site, auxiliary site); factor order
    follows the site numbers, excited state first.
    """
    nsites = 2 * len(sites)
    dim = 2**nsites

    def on(op, site):
        out = np.ones((1, 1))
        for n in range(1, nsites + 1):
            out = np.kron(out, op if n == site else np.eye(2))
        return out

    def left(op):  # vec(op rho) = (op (x) 1) vec rho, row-major vec
        return np.kron(op, np.eye(dim))

    def right(op):  # vec(rho op) = (1 (x) op^T) vec rho
        return np.kron(np.eye(dim), op.T)

    num = np.diag([1.0, 0.0])
    h = np.zeros((dim, dim))
    for k, (qubit, aux) in sites.items():
        h = h + params.pair(k)[0] * on(num, qubit)
    for k, (qubit, aux) in sites.items():
        h = h + params.pair(k)[1] * on(num, aux)
    for k, (qubit, aux) in sites.items():
        h = h + params.pair(k)[2] * (on(SP, qubit) @ on(SM, aux) + on(SM, qubit) @ on(SP, aux))
    liouv = -1j * (left(h) - right(h))
    for _, aux in sites.values():
        for lower, rate in ((on(SM, aux), params.nbar + 1.0), (on(SP, aux), params.nbar)):
            upper = lower.T
            liouv = liouv + params.gamma * rate * (
                2.0 * left(lower) @ right(upper) - left(upper @ lower) - right(upper @ lower)
            )
    return liouv


def test_liouvillians_match_explicit_construction():
    rng = np.random.default_rng(11)
    for _ in range(4):
        params = ModelParams(
            omega1=rng.uniform(0.5, 20.0), omega2=rng.uniform(0.5, 20.0),
            omega3=rng.uniform(0.5, 20.0), omega4=rng.uniform(0.5, 20.0),
            alpha1=rng.uniform(-3.0, 3.0), alpha2=rng.uniform(-3.0, 3.0),
            gamma=rng.uniform(0.1, 5.0), nbar=rng.uniform(0.0, 2.0),
        )
        for built, expected in (
            (build_full_liouvillian(params), explicit_liouvillian(params, {1: (1, 3), 2: (2, 4)})),
            (pair_liouvillian(params, 1), explicit_liouvillian(params, {1: (1, 2)})),
            (pair_liouvillian(params, 2), explicit_liouvillian(params, {2: (1, 2)})),
        ):
            assert built.shape == expected.shape
            assert np.abs(built - expected).max() <= 1e-14 * np.abs(expected).max()
    for k in (0, 3):
        with pytest.raises(ValueError, match="subsystem index"):
            pair_liouvillian(params, k)


def test_bell_state_matrix():
    bell = bell_state()
    assert bell.shape == (4, 4)
    assert np.trace(bell) == pytest.approx(1.0)
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    assert np.abs(bell - np.outer(vec, vec.conj())).max() < 1e-15


def test_full_initial_state():
    params = preset_params("fig6")
    rho0 = full_initial_state(bell_state(), params.nbar)
    assert rho0.shape == (16, 16)
    assert np.trace(rho0).real == pytest.approx(1.0, abs=1e-14)
    assert np.abs(partial_trace_34(rho0[None])[0] - bell_state()).max() < 1e-14


def test_evolution_starts_at_initial_state_and_keeps_trace():
    params = preset_params("fig6")
    grid = TimeGrid(2.0, 21)
    rho0 = full_initial_state(bell_state(), params.nbar)
    rhos = evolve_full(params, rho0, grid)
    assert np.abs(rhos[0] - rho0).max() < 1e-12
    traces = np.trace(rhos, axis1=1, axis2=2)
    assert np.abs(traces - 1.0).max() < 1e-9


ORACLE_PRESETS = ("fig2", "fig3", "fig6")


def reachable_components(L, rho0):
    """Components of vec rho0 that L's sparsity pattern can make nonzero."""
    pattern = (L != 0).astype(int)
    reach = rho0.reshape(256) != 0
    while True:
        grown = reach | (pattern @ reach.astype(int) > 0)
        if (grown == reach).all():
            return reach
        reach = grown


def expm_reference(params, rho0, grid):
    """expm(L t) vec rho0 at every grid time.

    The components reachable from rho0 are an invariant subspace of L,
    so the exponential is taken on that block alone (33 or 68 of 256
    components), which gives the same vectors at a small fraction of the
    cost of 256x256 exponentials.
    """
    L = build_full_liouvillian(params)
    reach = reachable_components(L, rho0)
    assert not L[np.ix_(~reach, reach)].any()
    block = L[np.ix_(reach, reach)]
    out = np.zeros((grid.num_points, 256), dtype=complex)
    for i, t in enumerate(grid.points):
        out[i, reach] = scipy.linalg.expm(block * t) @ rho0.reshape(256)[reach]
    return out.reshape(grid.num_points, 16, 16)


@pytest.mark.parametrize("name", ORACLE_PRESETS)
def test_evolve_full_matches_expm_reference(name):
    # powers of the one-step map against a fresh exponential at every time
    params = preset_params(name)
    grid = TimeGrid(1.0, 101)
    rho0 = full_initial_state(bell_state(), params.nbar)
    rhos = evolve_full(params, rho0, grid)
    assert np.abs(rhos - expm_reference(params, rho0, grid)).max() <= 1e-13


@pytest.mark.parametrize("name", ORACLE_PRESETS)
def test_evolve_full_long_steps(name):
    # steps of 5/12, where the exponential of one step has to scale and square
    params = preset_params(name)
    grid = TimeGrid(2.5, 7)
    rho0 = full_initial_state(bell_state(), params.nbar)
    rhos = evolve_full(params, rho0, grid)
    assert np.abs(rhos - expm_reference(params, rho0, grid)).max() <= 1e-13


def test_partial_trace_examples():
    rng = np.random.default_rng(9)
    rho12 = random_density(rng, 4)
    full = np.kron(np.kron(rho12, thermal_state(0.3)), thermal_state(0.3))
    assert np.abs(partial_trace_34(full[None])[0] - rho12).max() < 1e-14
    mixed = np.eye(16, dtype=complex) / 16.0
    assert np.abs(partial_trace_34(mixed[None])[0] - np.eye(4) / 4.0).max() < 1e-15


def test_reference_matches_coefficient_solver():
    grid = TimeGrid(2.0, 5)  # t = 0, 0.5, 1, 1.5, 2
    params = preset_params("fig2")
    result = simulate(params, grid)
    full = evolve_full(params, full_initial_state(bell_state(), params.nbar), grid)
    reduced = partial_trace_34(full)
    rho = x_matrix(result.a, result.b, result.c, result.d, result.f)
    assert np.abs(rho - reduced).max() < 1e-8


# the nine pair operators whose span is closed under the pair Liouvillian;
# expanding L X_j in this basis must reproduce the 9x9 generator
def x_basis(nbar):
    rho_bar = thermal_state(nbar)
    bracket = np.diag([-nbar, nbar + 1.0]) / (2.0 * nbar + 1.0)
    return [
        np.kron(rho_bar, rho_bar),
        np.kron(SZ, rho_bar),
        np.kron(SM, SP) - np.kron(SP, SM),
        np.kron(SM, SP) + np.kron(SP, SM),
        np.kron(rho_bar, SZ),
        np.kron(SP, rho_bar),
        np.kron(bracket, SP),
        np.kron(SM, rho_bar),
        np.kron(bracket, SM),
    ]


@pytest.mark.parametrize("name,k", [("fig2", 1), ("fig6", 2), ("fig7", 1)])
def test_generator_is_liouvillian_in_operator_basis(name, k):
    params = preset_params(name)
    L_pair = pair_liouvillian(params, k)
    basis = x_basis(params.nbar)
    B = np.stack([x.reshape(-1) for x in basis], axis=1)
    images = np.stack([L_pair @ x.reshape(-1) for x in basis], axis=1)
    coeffs, residual, *_ = np.linalg.lstsq(B, images, rcond=None)
    recon = B @ coeffs
    assert np.abs(recon - images).max() < 1e-10  # closure of the basis
    assert np.abs(coeffs - build_generator(params, k)).max() < 1e-10


def test_choi_at_time_zero_is_identity_channel():
    params = preset_params("fig2")
    choi = choi_of_subsystem_map(params, 1, 0.0)
    eig = np.sort(np.linalg.eigvalsh(choi))
    assert np.abs(eig - [0.0, 0.0, 0.0, 2.0]).max() < 1e-12
    assert np.trace(choi).real == pytest.approx(2.0, abs=1e-12)


def test_choi_trace_preserving():
    params = preset_params("fig6")
    choi = choi_of_subsystem_map(params, 1, 1.3).reshape(2, 2, 2, 2)
    # tracing the output leg returns the identity on the input leg
    reduced = np.einsum("ikjk->ij", choi)
    assert np.abs(reduced - np.eye(2)).max() < 1e-8


def test_choi_positive_for_warm_reservoir():
    params = preset_params("fig10")
    for t in (0.5, 2.0, 8.0):
        choi = choi_of_subsystem_map(params, 1, t)
        assert np.linalg.eigvalsh(choi).min() > -1e-10


def test_undamped_map_is_unitary_conjugation():
    params = ModelParams.from_detunings(
        omega1=10.0, delta1=0.0, delta2=0.0,
        alpha1=0.0, alpha2=0.0, gamma=0.0, nbar=0.0,
    )
    t = 0.7
    choi = choi_of_subsystem_map(params, 1, t)
    eig = np.sort(np.linalg.eigvalsh(choi))
    assert np.abs(eig - [0.0, 0.0, 0.0, 2.0]).max() < 1e-10

    u = np.diag([np.exp(-1j * 10.0 * t), 1.0])
    psi = np.array([0.6, 0.8], dtype=complex)
    rho = np.outer(psi, psi.conj())
    T = subsystem_transfer_matrix(params, 1, t)
    mapped = (T @ rho.reshape(-1)).reshape(2, 2)
    assert np.abs(mapped - u @ rho @ u.conj().T).max() < 1e-12


def test_choi_is_sum_of_matrix_unit_images():
    params = preset_params("fig7")
    T = subsystem_transfer_matrix(params, 2, 0.9)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            image = (T @ unit.reshape(-1)).reshape(2, 2)
            expected += np.kron(unit, image)
    assert np.array_equal(choi_of_subsystem_map(params, 2, 0.9), expected)


def test_negative_time_rejected():
    # the Choi matrix inherits the transfer matrix's check
    params = preset_params("fig2")
    for fn in (subsystem_transfer_matrix, choi_of_subsystem_map):
        for t in (-0.5, np.nan, np.inf, np.array([0.5, 1.0, -0.5, 2.0])):
            with pytest.raises(ValueError, match="finite and >= 0"):
                fn(params, 1, t)


@pytest.mark.parametrize("name", ["fig2", "fig6", "fig10"])
def test_stacked_maps_equal_per_time_maps(name):
    # one exponential over the stack gives each time's map bit for bit
    params = preset_params(name)
    times = np.array([0.0, 0.25, 1.0, 2.5, 5.0, 10.0, 44.2])
    for k in (1, 2):
        for fn in (subsystem_transfer_matrix, choi_of_subsystem_map):
            stacked = fn(params, k, times)
            assert stacked.shape == (len(times), 4, 4)
            for i, t in enumerate(times):
                single = fn(params, k, float(t))
                assert single.shape == (4, 4)
                assert np.array_equal(stacked[i], single)


def test_dynamics_factorizes_into_subsystem_maps():
    params = preset_params("fig2")
    t = 1.0
    t1 = subsystem_transfer_matrix(params, 1, t)
    t2 = subsystem_transfer_matrix(params, 2, t)
    product = apply_product_map(t1, t2, bell_state())
    grid = TimeGrid(t, 3)
    full = evolve_full(params, full_initial_state(bell_state(), params.nbar), grid)
    assert np.abs(product - partial_trace_34(full)[-1]).max() < 1e-8
