"""Memory kernel construction and the Volterra integro-differential solver."""

import numpy as np
import pytest
import scipy.linalg

from nmqsim.model import (
    P_INDICES,
    Q_INDICES,
    InitialTerm,
    ModelParams,
    build_generator,
    initial_coefficients,
    projector_pair,
)
from nmqsim.nzkernel import MemoryKernelSamples, build_kernel, local_term, solve_nz
from nmqsim.presets import preset_params
from nmqsim.propagator import TimeGrid, slow_solution

_P, _Q = list(P_INDICES), list(Q_INDICES)


def kernel_setup(name, t_end=10.0, num_points=10001):
    params = preset_params(name)
    gen = build_generator(params, 1)
    projs = projector_pair()
    grid = TimeGrid(0.0, t_end, num_points)
    return params, gen, projs, grid


def exceptional_point(nbar):
    # for zero detuning QLQ is defective at alpha = gamma_eff / (2 sqrt 2)
    gamma = 0.5
    alpha = (2.0 * nbar + 1.0) * gamma / (2.0 * np.sqrt(2.0))
    return ModelParams.from_detunings(
        omega1=10.0, delta1=0.0, delta2=0.0,
        alpha1=alpha, alpha2=alpha, gamma=gamma, nbar=nbar,
    )


# presets plus the exceptional point, where the eigenvectors of QLQ have
# condition number 1.4e8 (nbar = 0) and 7.1e7 (nbar = 0.2)
CASES = {
    "fig2": preset_params("fig2"),
    "fig6": preset_params("fig6"),
    "exceptional-nbar0": exceptional_point(0.0),
    "exceptional-nbar0.2": exceptional_point(0.2),
}


def per_lag_kernel(gen, times):
    """PL expm(QLQ t) LP on the slow indices, one expm per lag."""
    L = np.asarray(gen)
    PL, QLQ, LP = L[np.ix_(_P, _Q)], L[np.ix_(_Q, _Q)], L[np.ix_(_Q, _P)]
    return np.array([PL @ scipy.linalg.expm(QLQ * t) @ LP for t in times])


def reference_solve(gen, init, grid):
    """The same discrete equation as solve_nz, re-summing the history each step.

    O(N^2): step i forms the trapezoid sum over all i + 1 past samples
    from a kernel sampled by per-lag expm, so neither the powers of E nor
    the carried history vector enter the reference.
    """
    L = np.asarray(gen)
    K = per_lag_kernel(gen, grid.points)
    dt = grid.step
    M = L[np.ix_(_P, _P)] + 0.5 * dt * K[0]
    y = np.zeros((grid.num_points, len(_P)), dtype=complex)
    y[0] = init[_P]
    partial = np.zeros(len(_P), dtype=complex)
    for i in range(grid.num_points - 1):
        F = M @ y[i] + partial
        conv = np.einsum("tij,tj->i", K[1 : i + 1][::-1], y[1 : i + 1])
        partial = dt * (0.5 * K[i + 1] @ y[0] + conv)
        ynew = y[i] + dt * F
        for _ in range(2):
            ynew = y[i] + 0.5 * dt * (F + M @ ynew + partial)
        y[i + 1] = ynew
    out = np.zeros((grid.num_points, 9), dtype=complex)
    out[:, _P] = y
    return out


def test_kernel_at_zero_lag():
    params, gen, projs, grid = kernel_setup("fig2", 1.0, 11)
    kernel = build_kernel(gen, projs, grid)
    P, Q = projs
    ref = P @ gen @ Q @ gen @ P
    assert np.abs(kernel.samples[0] - ref).max() < 1e-12


def test_kernel_vanishes_without_coupling():
    params = preset_params("fig2")
    params = type(params).from_detunings(
        omega1=10.0, delta1=2.0, delta2=2.0,
        alpha1=0.0, alpha2=0.0, gamma=0.5, nbar=0.0,
    )
    gen = build_generator(params, 1)
    kernel = build_kernel(gen, projector_pair(), TimeGrid(0.0, 5.0, 51))
    assert np.abs(kernel.samples).max() == 0.0


def test_kernel_support():
    _, gen, projs, grid = kernel_setup("fig6", 5.0, 101)
    kernel = build_kernel(gen, projs, grid)
    # only the slow subspace rows/columns carry weight, and the
    # normalization row stays identically zero
    outside = np.ones((9, 9), dtype=bool)
    outside[np.ix_([0, 1, 5, 7], [0, 1, 5, 7])] = False
    assert np.all(kernel.samples[:, outside] == 0)
    assert np.all(kernel.samples[:, 0, :] == 0)
    assert np.all(kernel.samples[:, :, 0] == 0)


def test_kernel_decays_at_reservoir_rate():
    params, gen, projs, grid = kernel_setup("fig4", 10.0, 2001)
    kernel = build_kernel(gen, projs, grid)
    peak = np.abs(kernel.samples[0]).max()
    envelope = peak * np.exp(-0.5 * params.gamma_eff * kernel.lags)
    maxima = np.abs(kernel.samples).max(axis=(1, 2))
    assert np.all(maxima <= envelope * (1.0 + 1e-9))


def test_local_term():
    _, gen, projs, _ = kernel_setup("fig3")
    P, Q = projs
    assert np.array_equal(local_term(gen, projs), P @ gen @ P)


def test_stationary_background():
    params, gen, projs, grid = kernel_setup("fig3", 2.0, 2001)
    kernel = build_kernel(gen, projs, grid)
    init = np.zeros(9, dtype=complex)
    init[0] = 1.0
    sol = solve_nz(kernel, local_term(gen, projs), init, grid)
    assert np.abs(sol - init).max() < 1e-14


def test_matches_projected_direct_solution():
    params, gen, projs, grid = kernel_setup("fig2", 2.0, 2001)
    kernel = build_kernel(gen, projs, grid)
    loc = local_term(gen, projs)
    for term in (InitialTerm.EE, InitialTerm.EG):
        init = initial_coefficients(term, params.nbar)
        direct = slow_solution(gen, init, grid.points)
        sol = solve_nz(kernel, loc, init, grid)
        assert np.abs(sol - direct).max() < 2e-4


def test_step_halving_quarters_error():
    params, gen, projs, _ = kernel_setup("fig4")
    loc = local_term(gen, projs)
    init = initial_coefficients(InitialTerm.EG, params.nbar)
    errs = []
    for num_points in (501, 1001):
        grid = TimeGrid(0.0, 2.0, num_points)
        kernel = build_kernel(gen, projs, grid)
        direct = slow_solution(gen, init, grid.points)
        sol = solve_nz(kernel, loc, init, grid)
        errs.append(np.abs(sol - direct).max())
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_solver_input_validation():
    params, gen, projs, grid = kernel_setup("fig2", 1.0, 101)
    kernel = build_kernel(gen, projs, grid)
    loc = local_term(gen, projs)
    good = initial_coefficients(InitialTerm.EE, params.nbar)

    bad = good.copy()
    bad[2] = 0.1  # support outside the slow subspace
    with pytest.raises(ValueError):
        solve_nz(kernel, loc, bad, grid)

    with pytest.raises(ValueError):
        solve_nz(kernel, loc, good, TimeGrid(0.0, 1.0, 51))  # step mismatch
    with pytest.raises(ValueError):
        solve_nz(kernel, loc, good, TimeGrid(0.0, 2.0, 201))  # not covered
    with pytest.raises(ValueError):
        solve_nz(kernel, loc, good[:4], grid)
    with pytest.raises(ValueError):
        build_kernel(gen, projs, TimeGrid(0.5, 1.0, 11))  # lags must start at 0


def test_nonuniform_lags_rejected():
    lags = np.array([0.0, 0.1, 0.3])
    left, step_map, right = np.zeros((4, 5)), np.eye(5), np.zeros((5, 4))
    with pytest.raises(ValueError):
        MemoryKernelSamples(lags=lags, left=left, step_map=step_map, right=right)
    with pytest.raises(ValueError):  # factor shapes that do not chain
        MemoryKernelSamples(
            lags=np.array([0.0, 0.1]), left=left, step_map=step_map, right=right.T
        )


@pytest.mark.parametrize("case", CASES)
def test_kernel_samples_match_per_lag_expm(case):
    gen = build_generator(CASES[case], 1)
    grid = TimeGrid(0.0, 2.0, 401)
    kernel = build_kernel(gen, projector_pair(), grid)
    ref = per_lag_kernel(gen, grid.points)
    assert np.abs(kernel.samples[np.ix_(range(grid.num_points), _P, _P)] - ref).max() < 1e-12


@pytest.mark.parametrize("case", CASES)
def test_recurrence_matches_quadratic_reference(case):
    params = CASES[case]
    gen = build_generator(params, 1)
    projs = projector_pair()
    grid = TimeGrid(0.0, 2.0, 401)
    kernel = build_kernel(gen, projs, grid)
    loc = local_term(gen, projs)
    for term in InitialTerm:
        init = initial_coefficients(term, params.nbar)
        sol = solve_nz(kernel, loc, init, grid)
        assert np.abs(sol - reference_solve(gen, init, grid)).max() < 1e-12


@pytest.mark.parametrize("num_points", [2, 3])
def test_first_steps_match_quadratic_reference(num_points):
    # step 0 is taken on its own (half trapezoid weight, no history) and
    # step 1 is the first through the fused step map
    params, gen, projs, grid = kernel_setup("fig6", 0.2, num_points)
    kernel = build_kernel(gen, projs, grid)
    terms = (InitialTerm.EE, InitialTerm.EG)
    inits = np.stack([initial_coefficients(term, params.nbar) for term in terms])
    sol = solve_nz(kernel, local_term(gen, projs), inits, grid)
    assert sol.shape == (num_points, 2, 9)
    for j, init in enumerate(inits):
        assert np.abs(sol[:, j] - reference_solve(gen, init, grid)).max() < 1e-14


def test_stack_equals_single_calls():
    params, gen, projs, grid = kernel_setup("fig6", 2.0, 401)
    kernel = build_kernel(gen, projs, grid)
    loc = local_term(gen, projs)
    inits = np.stack([initial_coefficients(term, params.nbar) for term in InitialTerm])
    stacked = solve_nz(kernel, loc, inits, grid)
    assert stacked.shape == (grid.num_points, len(inits), 9)
    for j, init in enumerate(inits):
        assert np.abs(stacked[:, j] - solve_nz(kernel, loc, init, grid)).max() < 1e-14


def test_stack_with_off_subspace_row_rejected():
    params, gen, projs, grid = kernel_setup("fig2", 1.0, 101)
    kernel = build_kernel(gen, projs, grid)
    loc = local_term(gen, projs)
    inits = np.stack([initial_coefficients(term, params.nbar) for term in InitialTerm])
    for j in range(len(inits)):
        bad = inits.copy()
        bad[j, 6] = 1e-3  # support outside the slow subspace in one row only
        with pytest.raises(ValueError):
            solve_nz(kernel, loc, bad, grid)
