"""Memory-kernel form of the projected dynamics and its Volterra solver.

Projecting a pair's 9-dimensional coefficient equation onto its four slow
components 0, 1, 5 and 7 turns it into an integro-differential equation

    d(Pc)/dt = PLP Pc(t) + int_0^t K(t - tau) Pc(tau) dtau

with the exact memory kernel K(tau) = PL exp(QLQ tau) LP, where PL is the
4x5 block L[P, Q], QLQ the 5x5 block L[Q, Q] and LP the 5x4 block L[Q, P].
Nothing is approximated: solving this equation must reproduce the
projection of the direct solution, and the solver below exists to
demonstrate that.  Both functions take the pair's parameters and build
L = build_generator(params, k) themselves, and every vector holds only
the four slow components, in :data:`~nmqsim.model.P_INDICES` order.

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
once, by pushing the identity through one step, and takes every later
state as z_i = z_1 T^(i-1) with :func:`nmqsim.propagator.step_powers`,
the doubling that also fills the kernel's lags.

E is scipy's ``scipy.linalg.expm``, imported inside :func:`build_kernel`,
and the powers of E and T are scipy's BLAS products in
:func:`~nmqsim.propagator.step_powers`, which imports it, so importing this
module, or the package, loads no scipy module; the first kernel built
loads ``scipy.linalg``.  Those products use scipy's BLAS so that the solve,
like the ``expm`` before it, runs in the one OpenBLAS copy that scipy
bundles and never wakes numpy's.
"""

from dataclasses import dataclass

import numpy as np

from .model import P_INDICES, Q_INDICES, ModelParams, build_generator
from .propagator import TimeGrid, step_powers

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

    def samples(self, n: int) -> np.ndarray:
        """K at lags 0, step, ..., (n - 1) step on the slow components: (n, 4, 4)."""
        return step_powers(self.left, self.step_map, n) @ self.right


def build_kernel(params: ModelParams, k: int, step: float) -> MemoryKernelSamples:
    """K(tau) = P L exp(Q L Q tau) Q L P of pair k at lag step ``step``, in factored form.

    The blocks are slices of ``build_generator(params, k)`` on
    :data:`P_INDICES` and :data:`Q_INDICES`.  exp(QLQ i step) is the i-th
    power of E = expm(QLQ step), taken by scaling-and-squaring, which stays
    exact where QLQ is defective.
    """
    import scipy.linalg

    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"kernel step must be finite and positive, got {step!r}")
    L = build_generator(params, k)
    return MemoryKernelSamples(
        step=step,
        local=L[np.ix_(_P, _P)],
        left=L[np.ix_(_P, _Q)],
        step_map=scipy.linalg.expm(L[np.ix_(_Q, _Q)] * step),
        right=L[np.ix_(_Q, _P)],
    )


def solve_nz(params: ModelParams, k: int, init: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Integrate pair k's projected equation with its memory convolution.

    Trapezoidal quadrature handles the history integral; each step is an
    Euler prediction followed by two corrector passes, which drives the
    step to the implicit trapezoidal rule and halves the phase error a
    single correction would leave on the oscillatory components.  Global
    error is O(dt^2).  The history sum is carried as the Q-space vector h
    of the module docstring, so the cost is linear in the number of steps.
    Step 0 is taken on its own; every later step is the fused 9x9 step
    map T of [y, h], built from the same prediction, the same two
    corrector passes and the same h update, so the states after step 0
    are z_1 T^j, filled by doubling.

    ``init`` is the state at t = 0, where the history integral starts, on
    the four slow components in :data:`P_INDICES` order: one 4-vector or
    an (m, 4) stack solved together.  Returns the state at each grid time,
    (num_points, 4), or (num_points, m, 4) for a stack.  The memory kernel
    of ``build_generator(params, k)`` is built at the grid's step.
    """
    init = np.asarray(init, dtype=complex)
    p = len(_P)
    if init.shape[-1:] != (p,) or init.ndim not in (1, 2):
        raise ValueError("initial vector must have 4 slow components")
    if not np.isfinite(init).all():
        raise ValueError("initial vector must be finite")
    dt = grid.step
    kernel = build_kernel(params, k, dt)

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

    # step 0: the trapezoid's half weight on y_0, and no history yet
    z1 = np.concatenate(step(init, 0.5 * init @ LPt, np.zeros_like(init)), axis=-1)
    # every later step is one linear map of z_i = [y_i, h_i]: push the
    # identity through it once to get T, then z_i = z_1 T^(i - 1)
    eye = np.eye(p + len(_Q), dtype=complex)
    y, h = eye[:, :p], eye[:, p:]
    T = np.concatenate(step(y, h + y @ LPt, h @ PLt), axis=1)

    out = np.empty((grid.num_points,) + init.shape, dtype=complex)
    out[0] = init
    out[1:] = step_powers(z1, T, grid.num_points - 1)[..., :p]
    return out
