"""One scalar response per qubit, and the two-qubit X state it builds.

Each qubit couples to its own memory atom and bath, so the two pairs
evolve independently and qubit k enters the reduced two-qubit state only
through one complex function of time, fixed by its coupling, detuning,
frequencies and gamma_eff and read off its 9x9 generator
L_k = build_generator(params, k) (see :mod:`nmqsim.model`):

    u_k(t) = [exp(C_k t)]_00,   C_k = L_k[5:7, 5:7]   coherence response

Its population response s_k(t) = [exp(B_k t)]_00 of the block
B_k = L_k[1:5, 1:5] is |u_k(t)|^2.  B_k is similar to the Kronecker sum
C_k (x) 1 + 1 (x) conj(C_k), so exp(B_k t) acts as the tensor square
exp(C_k t) (x) conj(exp(C_k t)), and both blocks depend on nbar only
through gamma_eff, so the identity holds at every temperature.  At zero
temperature it is the population |G(t)|^2 of one excitation damped
through a pseudomode with amplitude G (Garraway, Phys. Rev. A 55, 2290
(1997); Bellomo, Lo Franco and Compagno, Phys. Rev. Lett. 99, 160502
(2007)).  The tests take s from a 50-digit exponential of B_k itself
(tests/high_precision.py), its independent reference.

With w = 2 nbar + 1, qubit k's excited population is
e_k = nbar/w + s_k (nbar + 1)/w if it starts excited and
g_k = nbar/w - s_k nbar/w if it starts in the ground state, and the Bell
state (|00> + |11>)/sqrt(2) evolves into the X state

    a = (e1 e2 + g1 g2) / 2              b = (e1 (1-e2) + g1 (1-g2)) / 2
    c = ((1-e1) e2 + (1-g1) g2) / 2      d = ((1-e1)(1-e2) + (1-g1)(1-g2)) / 2
    f = u1 u2 / 2

:func:`x_matrix` builds the 4x4 matrix of these five numbers for the cross-checks.

u is a closed form, elementwise in t, read from the block entries; no
matrix exponential is taken.  The functions here take the pair's
:class:`~nmqsim.model.ModelParams` and build L_k themselves, so
build_generator stays the one statement of the equations of motion.

exp(C t)_00 = exp(m t) [cosh(z) + h t sinh(z) / z] of the 2x2 block,
with m = tr C / 2, h = (C_00 - C_11) / 2, sigma^2 = h^2 + C_01 C_10 and
z = sigma t; it is continuous through sigma = 0, where C is defective.
Its slow eigenvalue m + sigma cancels under strong damping, so it is
taken as i Im m + det(C - i Im m) / (Re m - sigma), the product of the
shifted roots over the one formed without cancellation (Higham,
"Accuracy and Stability of Numerical Algorithms", 2nd ed., SIAM 2002,
section 1.8); the shift keeps the qubit frequency out of that quotient.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, build_generator

__all__ = [
    "TimeGrid",
    "evolve_x_state",
    "responses",
    "slow_solution",
    "step_powers",
    "x_matrix",
    "x_state_from_responses",
]

@dataclass(frozen=True)
class TimeGrid:
    """Sample times ``linspace(0, t_end, num_points)``; every run starts at t = 0."""

    t_end: float
    num_points: int

    def __post_init__(self) -> None:
        if isinstance(self.t_end, (bool, np.bool_)) or not np.isfinite(self.t_end) or self.t_end <= 0:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        try:
            # Python and numpy integers only: bool is an int but not a count
            count = -1 if isinstance(self.num_points, bool) else operator.index(self.num_points)
        except TypeError:
            count = -1
        if count < 2:
            raise ValueError(f"num_points must be an integer >= 2, got {self.num_points!r}")
        object.__setattr__(self, "num_points", count)
        # a subnormal step cannot resolve uniformly spaced samples
        if self.step < np.finfo(float).tiny:
            raise ValueError(f"grid step {self.step:.3g} is below the smallest normal float")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.num_points)

    @property
    def step(self) -> float:
        return self.t_end / (self.num_points - 1)


def step_powers(first, step_map, n: int) -> np.ndarray:
    """``first @ step_map**j`` for j = 0, ..., n - 1, stacked along a new first axis.

    ``first`` is a row, a stack of rows or a matrix whose last axis matches
    ``step_map``; the result has shape (n,) + first.shape and the BLAS type
    of np.result_type(first, step_map) (float64 or complex128 for float64
    and complex128 inputs).  With E = step_map, the powers are filled by
    doubling, first E^(m + j) = (first E^j) E^m, in about log2(n) batched
    products rather than n - 1 single ones.

    Every product is scipy's BLAS gemm, written straight into the result
    through its transposed (Fortran-order) views.  The callers have just
    taken scipy's ``expm``, so the march stays in the OpenBLAS that scipy
    bundles and never wakes the helper thread of numpy's separate copy.
    scipy is imported here, so importing this module loads no scipy module.
    """
    import scipy.linalg.blas

    if n < 1:
        raise ValueError(f"need at least one power, got n = {n}")
    first = np.asarray(first)
    gemm = scipy.linalg.blas.get_blas_funcs("gemm", dtype=np.result_type(first, step_map))
    out = np.empty((n,) + first.shape, dtype=gemm.dtype)
    out[0] = first
    # the rows of the C-order result are the columns of its Fortran-order
    # transpose, and (first E^j)^T = (E^T)^j first^T
    rows = math.prod(first.shape[:-1])
    cols = out.reshape(n * rows, first.shape[-1]).T
    m, Emt = 1, np.asfortranarray(np.transpose(step_map), dtype=gemm.dtype)
    while m < n and out.size:
        k = min(m, n - m)
        gemm(1.0, Emt, cols[:, : k * rows], c=cols[:, m * rows : (m + k) * rows], overwrite_c=True)
        m, Emt = m + k, gemm(1.0, Emt, Emt)
    return out


def _response_evaluator(pairs):
    """Evaluator t -> (s, u) of the given (params, k) pairs, each of shape (pairs,) + shape(t).

    The constants of u's closed form are read from the coherence block of
    each pair's :func:`~nmqsim.model.build_generator` once, so each call is
    a fixed number of elementwise operations, and s is |u|^2.  Times are not
    checked here: they must be finite and >= 0, as :func:`responses` checks.
    """
    # constants of shape (pairs, 1) broadcast over t, from the coherence
    # block shifted by its common rotation i Im m
    blocks = np.array([build_generator(params, k) for params, k in pairs])[:, 5:7, 5:7, None]
    (c00, c01), (c10, c11) = blocks.transpose(1, 2, 0, 3)
    mean = 0.5 * (c00 + c11)
    half = 0.5 * (c00 - c11)
    sigma = np.sqrt(half * half + c01 * c10)  # principal root: Re sigma >= 0
    slow_minus = mean.real - sigma
    shifted_det = (c00.real + 1j * half.imag) * (c11.real - 1j * half.imag) - c01 * c10
    lam_plus = 1j * mean.imag + shifted_det / np.where(slow_minus == 0.0, 1.0, slow_minus)
    # exp(C t)_00 = exp(lam+ t) [1 + (e^{-2z} - 1) (sigma - h) / (2 sigma)], z = sigma t,
    # and exp(lam+ t) (1 + h t) where sigma = 0
    sigma_zero = sigma == 0.0
    coh_em = np.where(sigma_zero, 0.0, 0.5 - 0.5 * half / np.where(sigma_zero, 1.0, sigma))
    coh_lin = np.where(sigma_zero, half, 0.0)
    two_sigma = 2.0 * sigma

    def at(times):
        t = np.asarray(times, dtype=float)
        em = np.expm1(two_sigma * -t)
        u = np.exp(lam_plus * t) * (1.0 + coh_em * em + coh_lin * t)
        return u.real * u.real + u.imag * u.imag, u

    return at


def _checked_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a non-empty 1-d array of finite values")
    # u's expm1(-2 sigma t) grows without bound backward in time
    if np.any(times < 0.0):
        raise ValueError("times must be >= 0")
    return times


def responses(params: ModelParams, k: int, times) -> tuple[np.ndarray, np.ndarray]:
    """Population and coherence responses (s, u) of pair k at each time.

    ``times`` is a non-empty 1-d array of finite times >= 0, in any order.
    u(t) = exp(C t)_00 for the coherence block C of
    ``build_generator(params, k)``, and s(t) = exp(B t)_00 = |u(t)|^2 for
    its population block B (see the module docstring).
    """
    s, u = _response_evaluator([(params, k)])(_checked_times(times))
    return s[0], u[0]


def x_state_from_responses(s1, u1, s2, u2, nbar: float):
    """X-state components (a, b, c, d, f) from the responses of pairs 1 and 2.

    Works elementwise on arrays and on plain numbers alike.
    """
    w = 2.0 * nbar + 1.0
    # excited population of each qubit when it starts excited (e) or in ground (g)
    e1, e2 = (nbar + s1 * (nbar + 1.0)) / w, (nbar + s2 * (nbar + 1.0)) / w
    g1, g2 = nbar * (1.0 - s1) / w, nbar * (1.0 - s2) / w
    a = 0.5 * (e1 * e2 + g1 * g2)
    b = 0.5 * (e1 * (1.0 - e2) + g1 * (1.0 - g2))
    c = 0.5 * ((1.0 - e1) * e2 + (1.0 - g1) * g2)
    d = 0.5 * ((1.0 - e1) * (1.0 - e2) + (1.0 - g1) * (1.0 - g2))
    return a, b, c, d, 0.5 * u1 * u2


def x_matrix(a, b, c, d, f) -> np.ndarray:
    """X-state density matrices from their components, shape (..., 4, 4).

    a sits at |11><11|, b at |10><10|, c at |01><01|, d at |00><00| and
    f at <11|rho|00>; the conjugate corner is conj(f), so the result is
    Hermitian exactly.
    """
    a, b, c, d, f = np.broadcast_arrays(a, b, c, d, f)
    rho = np.zeros(a.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = a
    rho[..., 1, 1] = b
    rho[..., 2, 2] = c
    rho[..., 3, 3] = d
    rho[..., 0, 3] = f
    rho[..., 3, 0] = np.conj(f)
    return rho


def evolve_x_state(params: ModelParams, times):
    """X-state components (a, b, c, d, f) of the evolved Bell state at each time.

    ``times`` are as for :func:`responses`.
    """
    s, u = _response_evaluator([(params, 1), (params, 2)])(_checked_times(times))
    return x_state_from_responses(s[0], u[0], s[1], u[1], params.nbar)


def slow_solution(params: ModelParams, k: int, init, times) -> np.ndarray:
    """``exp(L t) c(0)`` of pair k on the slow components, shape (len(times), 4).

    ``init`` is c(0) on the four slow components, in
    :data:`~nmqsim.model.P_INDICES` order (0, 1, 5, 7), and must be finite.
    Index 0 is stationary, index 1 scales by s(t), index 5 by u(t) and
    index 7 by conj(u(t)), because the {7, 8} block is the complex conjugate
    of the {5, 6} block: the result is init * [1, s, u, conj(u)].
    """
    init = np.asarray(init, dtype=complex)
    if init.shape != (4,):
        raise ValueError("initial vector must have 4 slow components")
    if not np.isfinite(init).all():
        raise ValueError("initial vector must be finite")
    s, u = responses(params, k, times)
    return init * np.stack([np.ones_like(s), s, u, np.conj(u)], axis=-1)
