"""Memory kernel construction and the Volterra integro-differential solver."""

import numpy as np
import pytest

from nmqsim.model import (
    InitialTerm,
    build_generator,
    initial_coefficients,
    projector_pair,
)
from nmqsim.nzkernel import MemoryKernelSamples, build_kernel, local_term, solve_nz
from nmqsim.presets import preset_params
from nmqsim.propagator import TimeGrid, slow_solution


def kernel_setup(name, t_end=10.0, num_points=10001):
    params = preset_params(name)
    gen = build_generator(params, 1)
    projs = projector_pair()
    grid = TimeGrid(0.0, t_end, num_points)
    return params, gen, projs, grid


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
    samples = np.zeros((3, 9, 9), dtype=complex)
    with pytest.raises(ValueError):
        MemoryKernelSamples(lags=lags, samples=samples)
    with pytest.raises(ValueError):
        MemoryKernelSamples(lags=np.array([0.0, 0.1]), samples=samples)
