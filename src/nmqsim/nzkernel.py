"""Memory-kernel form of the projected dynamics and its Volterra solver.

Projecting the 9-dimensional coefficient equation onto the slow subspace
(components 0, 1, 5, 7) turns it into an integro-differential equation

    d(Pc)/dt = PLP Pc(t) + int_0^t K(t - tau) Pc(tau) dtau

with the exact memory kernel K(tau) = PL exp(QLQ tau) QLP.  Nothing is
approximated: solving this equation must reproduce the projection of the
direct solution, and the solver below exists to demonstrate that.

The kernel is sampled on a uniform lag grid that must match the solver
step exactly; interpolating the kernel would muddy the error analysis,
so mismatched steps are rejected.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import P_INDICES, Q_INDICES
from .propagator import TimeGrid

__all__ = ["MemoryKernelSamples", "build_kernel", "local_term", "solve_nz"]

_P = np.array(P_INDICES)
_Q = np.array(Q_INDICES)

# eigenvector condition number beyond which QLQ is treated as defective;
# the primary path uses no eigendecomposition, so this is the only copy
_EIG_COND_LIMIT = 1e8


@dataclass(frozen=True)
class MemoryKernelSamples:
    """K(tau) on a uniform lag grid; 9x9 with support only on rows/columns 0,1,5,7."""

    lags: np.ndarray
    samples: np.ndarray  # (len(lags), 9, 9)

    def __post_init__(self):
        if self.samples.shape != (len(self.lags), 9, 9):
            raise ValueError("sample array shape does not match the lag grid")
        steps = np.diff(self.lags)
        # linspace jitter is ~1e-12 relative at 1e4 points, so gate well above it
        if len(steps) and np.abs(steps - steps.mean()).max() > 1e-6 * abs(steps.mean()):
            raise ValueError("kernel lags must be uniformly spaced")

    @property
    def step(self) -> float:
        return float(self.lags[1] - self.lags[0])


def build_kernel(generator, projectors, lags: TimeGrid) -> MemoryKernelSamples:
    """Sample K(tau) = P L exp(Q L Q tau) Q L P on the lag grid.

    The exponential of the Q-restricted generator is taken by
    eigendecomposition, falling back to dense scaling-and-squaring when
    the restricted block is defective.
    """
    L = np.asarray(generator, dtype=complex)
    P, Q = projectors
    PL = (np.asarray(P, dtype=float) @ L)[np.ix_(_P, _Q)]
    LP = (L @ np.asarray(P, dtype=float))[np.ix_(_Q, _P)]
    QLQ = L[np.ix_(_Q, _Q)]
    times = lags.points
    if times[0] != 0.0:
        raise ValueError("kernel lag grid must start at 0")
    w, v = np.linalg.eig(QLQ)
    if np.linalg.cond(v) <= _EIG_COND_LIMIT:
        left = PL @ v
        right = np.linalg.solve(v, LP)
        phases = np.exp(np.outer(times, w))
        reduced = np.einsum("ij,tj,jk->tik", left, phases, right)
    else:
        reduced = np.empty((len(times), len(_P), len(_P)), dtype=complex)
        for i, t in enumerate(times):
            reduced[i] = PL @ scipy.linalg.expm(QLQ * t) @ LP
    samples = np.zeros((len(times), 9, 9), dtype=complex)
    samples[np.ix_(range(len(times)), _P, _P)] = reduced
    return MemoryKernelSamples(lags=times, samples=samples)


def local_term(generator, projectors) -> np.ndarray:
    """The memoryless part P L P as a full 9x9 matrix."""
    L = np.asarray(generator, dtype=complex)
    P = np.asarray(projectors[0], dtype=float)
    return P @ L @ P


def solve_nz(
    kernel: MemoryKernelSamples,
    local: np.ndarray,
    init: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Integrate the projected equation with its memory convolution.

    Trapezoidal quadrature handles the history integral; each step is an
    Euler prediction followed by two corrector passes, which drives the
    step to the implicit trapezoidal rule and halves the phase error a
    single correction would leave on the oscillatory components.  Global
    error is O(dt^2).

    Returns the solution as (num_points, 9) with support on indices
    0, 1, 5, 7.  The kernel must be sampled exactly on the grid's lags.
    """
    init = np.asarray(init, dtype=complex)
    if init.shape != (9,):
        raise ValueError("initial vector must have 9 components")
    off = np.abs(init[_Q]).max()
    if off > 0.0:
        raise ValueError("initial vector has weight outside the projected subspace")
    times = grid.points
    if times[0] != 0.0:
        raise ValueError("the history integral starts at t=0; grid must too")
    dt = grid.step
    if abs(kernel.step - dt) > 1e-12 * dt:
        raise ValueError(
            f"kernel lag step {kernel.step:g} does not match grid step {dt:g}"
        )
    if kernel.lags[-1] < times[-1] - times[0] - 1e-12 * dt:
        raise ValueError("kernel lags do not cover the requested time span")

    K = kernel.samples[np.ix_(range(grid.num_points), _P, _P)]
    M = np.asarray(local, dtype=complex)[np.ix_(_P, _P)] + 0.5 * dt * K[0]
    y = np.zeros((grid.num_points, len(_P)), dtype=complex)
    y[0] = init[_P]
    partial = np.zeros(len(_P), dtype=complex)
    for i in range(grid.num_points - 1):
        F = M @ y[i] + partial
        if i >= 1:
            conv = np.einsum("tij,tj->i", K[1 : i + 1][::-1], y[1 : i + 1])
        else:
            conv = np.zeros(len(_P), dtype=complex)
        partial = dt * (0.5 * K[i + 1] @ y[0] + conv)
        ynew = y[i] + dt * F
        for _ in range(2):
            ynew = y[i] + 0.5 * dt * (F + M @ ynew + partial)
        y[i + 1] = ynew

    out = np.zeros((grid.num_points, 9), dtype=complex)
    out[:, _P] = y
    return out
