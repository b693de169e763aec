"""Memory-kernel form of the projected dynamics and its Volterra solver.

Projecting the 9-dimensional coefficient equation onto the slow subspace
(components 0, 1, 5, 7) turns it into an integro-differential equation

    d(Pc)/dt = PLP Pc(t) + int_0^t K(t - tau) Pc(tau) dtau

with the exact memory kernel K(tau) = PL exp(QLQ tau) LP, where PL is the
4x5 block L[P, Q], QLQ the 5x5 block L[Q, Q] and LP the 5x4 block L[Q, P].
Nothing is approximated: solving this equation must reproduce the
projection of the direct solution, and the solver below exists to
demonstrate that.

The projection is fixed by the generator and the index split, so the
kernel is built from the generator alone, at the solver's own step dt,
and is known exactly at every lag i dt: K(i dt) = PL E^i LP with
E = expm(QLQ dt).  No interpolation enters, and the trapezoidal history
sum at step i is dt PL h_i for a single 5-dimensional Q-space vector

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

__all__ = ["MemoryKernelSamples", "build_kernel", "solve_nz"]

_P = np.array(P_INDICES)
_Q = np.array(Q_INDICES)


@dataclass(frozen=True)
class MemoryKernelSamples:
    """The memory kernel at lag step ``step``, held as the blocks that define it.

    ``local`` is PLP (4x4), ``left`` is PL (4x5), ``step_map`` is
    E = expm(QLQ step) (5x5) and ``right`` is LP (5x4), so K(i step)
    restricted to P is left E^i right.
    """

    step: float
    local: np.ndarray  # (4, 4)
    left: np.ndarray  # (4, 5)
    step_map: np.ndarray  # (5, 5)
    right: np.ndarray  # (5, 4)

    def __post_init__(self):
        p, q = len(_P), len(_Q)
        shapes = (self.local.shape, self.left.shape, self.step_map.shape, self.right.shape)
        if shapes != ((p, p), (p, q), (q, q), (q, p)):
            raise ValueError("kernel blocks must be 4x4, 4x5, 5x5 and 5x4")

    def samples(self, n: int) -> np.ndarray:
        """K at lags 0, step, ..., (n - 1) step: (n, 9, 9), support on rows/columns 0, 1, 5, 7."""
        # PL E^(m + j) = (PL E^j) E^m fills the lags in log2(n) batched products
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


def build_kernel(generator, step: float) -> MemoryKernelSamples:
    """K(tau) = P L exp(Q L Q tau) Q L P at lag step ``step``, in factored form.

    The blocks are slices of the 9x9 generator on :data:`P_INDICES` and
    :data:`Q_INDICES`.  exp(QLQ i step) is the i-th power of
    E = expm(QLQ step), taken by scaling-and-squaring, which stays exact
    where QLQ is defective.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"kernel step must be finite and positive, got {step!r}")
    L = np.asarray(generator, dtype=complex)
    return MemoryKernelSamples(
        step=step,
        local=L[np.ix_(_P, _P)],
        left=L[np.ix_(_P, _Q)],
        step_map=scipy.linalg.expm(L[np.ix_(_Q, _Q)] * step),
        right=L[np.ix_(_Q, _P)],
    )


def solve_nz(generator, init: np.ndarray, grid: TimeGrid) -> np.ndarray:
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

    ``init`` is the state at t = 0, where the history integral starts: one
    9-vector or a (k, 9) stack solved together.  Returns the state at each
    grid time, (num_points, 9), or (num_points, k, 9) for a stack, with
    support on indices 0, 1, 5, 7.  The memory kernel of ``generator`` is
    built at the grid's step.
    """
    init = np.asarray(init, dtype=complex)
    if init.shape[-1:] != (9,) or init.ndim not in (1, 2):
        raise ValueError("initial vector must have 9 components")
    off = np.abs(init[..., _Q]).max()
    if off > 0.0:
        raise ValueError("initial vector has weight outside the projected subspace")
    dt = grid.step
    kernel = build_kernel(generator, dt)

    # rows are states, so every map acts from the right through its transpose
    PLt = dt * kernel.left.T
    Et = kernel.step_map.T
    LPt = kernel.right.T
    K0 = kernel.left @ kernel.right
    Mt = (kernel.local + 0.5 * dt * K0).T
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
