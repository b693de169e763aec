"""Memory-kernel form of the projected dynamics and its Volterra solver.

Projecting the 9-dimensional coefficient equation onto the slow subspace
(components 0, 1, 5, 7) turns it into an integro-differential equation

    d(Pc)/dt = PLP Pc(t) + int_0^t K(t - tau) Pc(tau) dtau

with the exact memory kernel K(tau) = PL exp(QLQ tau) LP, where PL is the
4x5 block L[P, Q], QLQ the 5x5 block L[Q, Q] and LP the 5x4 block L[Q, P].
Nothing is approximated: solving this equation must reproduce the
projection of the direct solution, and the solver below exists to
demonstrate that.

The kernel is sampled on a uniform lag grid that must match the solver
step exactly; interpolating the kernel would muddy the error analysis,
so mismatched steps are rejected.  On that grid K(i dt) = PL E^i LP with
E = expm(QLQ dt), so the trapezoidal history sum at step i is dt PL h_i
for a single 5-dimensional Q-space vector

    h_0 = E LP y_0 / 2,    h_i = E (h_{i-1} + LP y_i),

which the solver carries from step to step instead of re-summing the
history.  A solve therefore costs O(N) small products rather than O(N^2),
and it needs no eigendecomposition, so it holds unchanged where QLQ is
defective.

After the first step, which alone has the half weight on y_0 and no
history, every step is one fixed linear map of the 9-vector
z_i = [y_i, h_i]: z_{i+1} = z_i T.  The solver builds the 9x9 step map T
once, by pushing the identity through one step, and then applies it step
by step; it takes no powers of T.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import P_INDICES, Q_INDICES
from .propagator import TimeGrid

__all__ = ["MemoryKernelSamples", "build_kernel", "local_term", "solve_nz"]

_P = np.array(P_INDICES)
_Q = np.array(Q_INDICES)


@dataclass(frozen=True)
class MemoryKernelSamples:
    """K(tau) on a uniform lag grid, held as its three factors.

    ``left`` is PL (4x5), ``step_map`` is E = expm(QLQ dt) (5x5) and
    ``right`` is LP (5x4), so K(i dt) restricted to P is left E^i right.
    """

    lags: np.ndarray
    left: np.ndarray  # (4, 5)
    step_map: np.ndarray  # (5, 5)
    right: np.ndarray  # (5, 4)

    def __post_init__(self):
        p, q = len(_P), len(_Q)
        if (self.left.shape, self.step_map.shape, self.right.shape) != ((p, q), (q, q), (q, p)):
            raise ValueError("kernel factors must be 4x5, 5x5 and 5x4")
        steps = np.diff(self.lags)
        # linspace jitter is ~1e-12 relative at 1e4 points, so gate well above it
        if len(steps) and np.abs(steps - steps.mean()).max() > 1e-6 * abs(steps.mean()):
            raise ValueError("kernel lags must be uniformly spaced")

    @property
    def step(self) -> float:
        return float(self.lags[1] - self.lags[0])

    @property
    def samples(self) -> np.ndarray:
        """K at every lag, (len(lags), 9, 9) with support on rows/columns 0, 1, 5, 7."""
        n = len(self.lags)
        # PL E^(m + j) = (PL E^j) E^m fills the grid in log2(n) batched products
        rows = np.empty((n,) + self.left.shape, dtype=complex)
        rows[0] = self.left
        m, Em = 1, self.step_map
        while m < n:
            k = min(m, n - m)
            rows[m : m + k] = rows[:k] @ Em
            m, Em = m + k, Em @ Em
        out = np.zeros((n, 9, 9), dtype=complex)
        out[np.ix_(range(n), _P, _P)] = rows @ self.right
        return out


def build_kernel(generator, projectors, lags: TimeGrid) -> MemoryKernelSamples:
    """K(tau) = P L exp(Q L Q tau) Q L P on the lag grid, in factored form.

    exp(QLQ i dt) is the i-th power of E = expm(QLQ dt), taken by
    scaling-and-squaring, which stays exact where QLQ is defective.
    """
    L = np.asarray(generator, dtype=complex)
    P, Q = projectors
    PL = (np.asarray(P, dtype=float) @ L)[np.ix_(_P, _Q)]
    LP = (L @ np.asarray(P, dtype=float))[np.ix_(_Q, _P)]
    QLQ = L[np.ix_(_Q, _Q)]
    times = lags.points
    if times[0] != 0.0:
        raise ValueError("kernel lag grid must start at 0")
    E = scipy.linalg.expm(QLQ * lags.step)
    return MemoryKernelSamples(lags=times, left=PL, step_map=E, right=LP)


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
    error is O(dt^2).  The history sum is carried as the Q-space vector h
    of the module docstring, so the cost is linear in the number of steps.
    Step 0 is taken on its own; every later step is one product with the
    fused 9x9 step map T of [y, h], built from the same prediction, the
    same two corrector passes and the same h update.

    ``init`` is one 9-vector or a (k, 9) stack solved together.  Returns
    (num_points, 9), or (num_points, k, 9) for a stack, with support on
    indices 0, 1, 5, 7.  The kernel must be sampled exactly on the grid's
    lags.
    """
    init = np.asarray(init, dtype=complex)
    if init.shape[-1:] != (9,) or init.ndim not in (1, 2):
        raise ValueError("initial vector must have 9 components")
    off = np.abs(init[..., _Q]).max()
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

    # rows are states, so every map acts from the right through its transpose
    PLt = dt * kernel.left.T
    Et = kernel.step_map.T
    LPt = kernel.right.T
    K0 = kernel.left @ kernel.right
    Mt = (np.asarray(local, dtype=complex)[np.ix_(_P, _P)] + 0.5 * dt * K0).T
    half_Mt = 0.5 * dt * Mt

    def step(y, h, partial):
        """One step from y_i, with h already carrying y_i; returns y_{i+1}, h_{i+1}."""
        F = y @ Mt + partial
        h = h @ Et
        partial = h @ PLt
        # Euler prediction, then two passes of y + dt/2 (F + M ynew + partial)
        fixed = y + 0.5 * dt * (F + partial)
        ynew = y + dt * F
        for _ in range(2):
            ynew = fixed + ynew @ half_Mt
        return ynew, h

    p = len(_P)
    z = np.zeros((grid.num_points,) + init.shape[:-1] + (p + len(_Q),), dtype=complex)
    z[0, ..., :p] = init[..., _P]
    if grid.num_points > 1:
        # step 0: the trapezoid's half weight on y_0, and no history yet
        y0 = z[0, ..., :p]
        z[1, ..., :p], z[1, ..., p:] = step(y0, 0.5 * y0 @ LPt, np.zeros_like(y0))
    # every later step is one linear map of z_i = [y_i, h_i]: push the
    # identity through it once, then apply it row by row
    eye = np.eye(p + len(_Q), dtype=complex)
    y, h = eye[:, :p], eye[:, p:]
    T = np.concatenate(step(y, h + y @ LPt, h @ PLt), axis=1)
    for i in range(1, grid.num_points - 1):
        np.matmul(z[i], T, out=z[i + 1])

    out = np.zeros(z.shape[:-1] + (9,), dtype=complex)
    out[..., _P] = z[..., :p]
    return out
