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
)
from nmqsim.nzkernel import MemoryKernelSamples, build_kernel, solve_nz
from nmqsim.presets import preset_params
from nmqsim.propagator import TimeGrid, slow_solution

_P, _Q = list(P_INDICES), list(Q_INDICES)


def kernel_setup(name, t_end=10.0, num_points=10001):
    params = preset_params(name)
    gen = build_generator(params, 1)
    grid = TimeGrid(t_end, num_points)
    return params, gen, grid


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
    _, gen, grid = kernel_setup("fig2", 1.0, 11)
    P = np.diag(np.isin(range(9), P_INDICES)).astype(int)
    Q = np.diag(np.isin(range(9), Q_INDICES)).astype(int)
    ref = P @ gen @ Q @ gen @ P
    assert np.abs(build_kernel(gen, grid.step).samples(1)[0] - ref).max() < 1e-12


def test_kernel_vanishes_without_coupling():
    params = preset_params("fig2")
    params = type(params).from_detunings(
        omega1=10.0, delta1=2.0, delta2=2.0,
        alpha1=0.0, alpha2=0.0, gamma=0.5, nbar=0.0,
    )
    gen = build_generator(params, 1)
    kernel = build_kernel(gen, 0.1)
    assert np.abs(kernel.samples(51)).max() == 0.0


def test_kernel_support():
    _, gen, grid = kernel_setup("fig6", 5.0, 101)
    samples = build_kernel(gen, grid.step).samples(grid.num_points)
    # only the slow subspace rows/columns carry weight, and the
    # normalization row stays identically zero
    outside = np.ones((9, 9), dtype=bool)
    outside[np.ix_([0, 1, 5, 7], [0, 1, 5, 7])] = False
    assert np.all(samples[:, outside] == 0)
    assert np.all(samples[:, 0, :] == 0)
    assert np.all(samples[:, :, 0] == 0)


def test_kernel_decays_at_reservoir_rate():
    params, gen, grid = kernel_setup("fig4", 10.0, 2001)
    samples = build_kernel(gen, grid.step).samples(grid.num_points)
    peak = np.abs(samples[0]).max()
    envelope = peak * np.exp(-0.5 * params.gamma_eff * grid.points)
    maxima = np.abs(samples).max(axis=(1, 2))
    assert np.all(maxima <= envelope * (1.0 + 1e-9))


def test_local_term():
    _, gen, grid = kernel_setup("fig3")
    assert np.array_equal(build_kernel(gen, grid.step).local, gen[np.ix_(_P, _P)])


def test_stationary_background():
    params, gen, grid = kernel_setup("fig3", 2.0, 2001)
    init = np.zeros(9, dtype=complex)
    init[0] = 1.0
    sol = solve_nz(gen, init, grid)
    assert np.abs(sol - init).max() < 1e-14


def test_matches_projected_direct_solution():
    params, gen, grid = kernel_setup("fig2", 2.0, 2001)
    for term in (InitialTerm.EE, InitialTerm.EG):
        init = initial_coefficients(term, params.nbar)
        direct = slow_solution(params, 1, init, grid.points)
        sol = solve_nz(gen, init, grid)
        assert np.abs(sol - direct).max() < 2e-4


def test_step_halving_quarters_error():
    params, gen, _ = kernel_setup("fig4")
    init = initial_coefficients(InitialTerm.EG, params.nbar)
    errs = []
    for num_points in (501, 1001):
        grid = TimeGrid(2.0, num_points)
        direct = slow_solution(params, 1, init, grid.points)
        sol = solve_nz(gen, init, grid)
        errs.append(np.abs(sol - direct).max())
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_solver_input_validation():
    params, gen, grid = kernel_setup("fig2", 1.0, 101)
    good = initial_coefficients(InitialTerm.EE, params.nbar)

    bad = good.copy()
    bad[2] = 0.1  # support outside the slow subspace
    with pytest.raises(ValueError):
        solve_nz(gen, bad, grid)
    with pytest.raises(ValueError):
        solve_nz(gen, good[:4], grid)
    # a NaN off the slow subspace must not be dropped as if it were zero
    for index in (2, 3, 4, 6, 8):
        bad = good.copy()
        bad[index] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_nz(gen, bad, grid)
    bad = np.stack([good, good])
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        solve_nz(gen, bad, grid)


def test_slow_solution_input_validation():
    # the reference the solve is checked against takes the same input rules
    params, gen, grid = kernel_setup("fig2", 1.0, 101)
    good = initial_coefficients(InitialTerm.EE, params.nbar)
    assert np.isfinite(slow_solution(params, 1, good, grid.points)).all()
    for index in (0, 1, 5, 7):
        for value in (np.nan, np.inf):
            bad = good.copy()
            bad[index] = value
            with pytest.raises(ValueError, match="finite"):
                slow_solution(params, 1, bad, grid.points)
    bad = good.copy()
    bad[2] = 0.1  # support outside the slow subspace
    with pytest.raises(ValueError, match="zero off"):
        slow_solution(params, 1, bad, grid.points)
    for shape_bad in (good[:4], np.stack([good, good])):
        with pytest.raises(ValueError, match="9 components"):
            slow_solution(params, 1, shape_bad, grid.points)


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
def test_kernel_rejects_bad_step(step):
    _, gen, _ = kernel_setup("fig2")
    with pytest.raises(ValueError, match="finite and positive"):
        build_kernel(gen, step)


def test_kernel_block_shapes_rejected():
    blocks = dict(local=np.zeros((4, 4)), left=np.zeros((4, 5)), step_map=np.eye(5),
                  right=np.zeros((5, 4)))
    MemoryKernelSamples(step=0.1, **blocks)
    with pytest.raises(ValueError):  # factor shapes that do not chain
        MemoryKernelSamples(step=0.1, **{**blocks, "right": blocks["right"].T})
    with pytest.raises(ValueError):  # a local block off the slow subspace
        MemoryKernelSamples(step=0.1, **{**blocks, "local": np.zeros((5, 5))})


@pytest.mark.parametrize("case", CASES)
def test_kernel_samples_match_per_lag_expm(case):
    gen = build_generator(CASES[case], 1)
    grid = TimeGrid(2.0, 401)
    samples = build_kernel(gen, grid.step).samples(grid.num_points)
    ref = per_lag_kernel(gen, grid.points)
    assert np.abs(samples[np.ix_(range(grid.num_points), _P, _P)] - ref).max() < 1e-12


@pytest.mark.parametrize("case", CASES)
def test_recurrence_matches_quadratic_reference(case):
    params = CASES[case]
    gen = build_generator(params, 1)
    grid = TimeGrid(2.0, 401)
    for term in InitialTerm:
        init = initial_coefficients(term, params.nbar)
        sol = solve_nz(gen, init, grid)
        assert np.abs(sol - reference_solve(gen, init, grid)).max() < 1e-12


@pytest.mark.parametrize("num_points", [2, 3])
def test_first_steps_match_quadratic_reference(num_points):
    # step 0 is taken on its own (half trapezoid weight, no history) and
    # step 1 is the first through the fused step map
    params, gen, grid = kernel_setup("fig6", 0.2, num_points)
    terms = (InitialTerm.EE, InitialTerm.EG)
    inits = np.stack([initial_coefficients(term, params.nbar) for term in terms])
    sol = solve_nz(gen, inits, grid)
    assert sol.shape == (num_points, 2, 9)
    for j, init in enumerate(inits):
        assert np.abs(sol[:, j] - reference_solve(gen, init, grid)).max() < 1e-14


def test_stack_equals_single_calls():
    params, gen, grid = kernel_setup("fig6", 2.0, 401)
    inits = np.stack([initial_coefficients(term, params.nbar) for term in InitialTerm])
    stacked = solve_nz(gen, inits, grid)
    assert stacked.shape == (grid.num_points, len(inits), 9)
    for j, init in enumerate(inits):
        assert np.abs(stacked[:, j] - solve_nz(gen, init, grid)).max() < 1e-14


def test_stack_with_off_subspace_row_rejected():
    params, gen, grid = kernel_setup("fig2", 1.0, 101)
    inits = np.stack([initial_coefficients(term, params.nbar) for term in InitialTerm])
    for j in range(len(inits)):
        bad = inits.copy()
        bad[j, 6] = 1e-3  # support outside the slow subspace in one row only
        with pytest.raises(ValueError):
            solve_nz(gen, bad, grid)
