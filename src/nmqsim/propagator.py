"""Two scalar responses per qubit, and the two-qubit X state they build.

Each qubit couples to its own memory atom and bath, so the two pairs
evolve independently and qubit k enters the reduced two-qubit state only
through two scalar functions of time, fixed by its coupling, detuning,
frequencies and gamma_eff and read off its 9x9 generator
L_k = build_generator(params, k) (see :mod:`nmqsim.model`):

    s_k(t) = [exp(B_k t)]_00,   B_k = L_k[1:5, 1:5]   population response
    u_k(t) = [exp(C_k t)]_00,   C_k = L_k[5:7, 5:7]   coherence response

With w = 2 nbar + 1, qubit k's excited population is
e_k = nbar/w + s_k (nbar + 1)/w if it starts excited and
g_k = nbar/w - s_k nbar/w if it starts in the ground state, and the Bell
state (|00> + |11>)/sqrt(2) evolves into the X state

    a = (e1 e2 + g1 g2) / 2              b = (e1 (1-e2) + g1 (1-g2)) / 2
    c = ((1-e1) e2 + (1-g1) g2) / 2      d = ((1-e1)(1-e2) + (1-g1)(1-g2)) / 2
    f = u1 u2 / 2

:func:`x_matrix` builds the 4x4 matrix of these five numbers for the cross-checks.

Both responses are closed forms, elementwise in t, read from the block
entries; no matrix exponential is taken.  The functions here take the
pair's :class:`~nmqsim.model.ModelParams` and build L_k themselves, so
build_generator stays the one statement of the equations of motion and
the block relations the closed forms rely on hold by construction.

s: write gamma = gamma_eff and X = B + gamma I.  X has the even
characteristic polynomial mu^4 - P mu^2 - Q, so X^2 satisfies
x^2 - P x - Q = 0, whose roots x+ >= 0 >= x- are real.  Splitting
exp(X t) = cosh(X t) + sinh(X t) and interpolating on {x+, x-}
(Cayley-Hamilton) gives

    s(t) = exp(-gamma t) [g(x-) + gamma h(x-) + ((X^2)_00 - x-) Dg
                          + ((X^3)_00 - gamma x-) Dh],

with g(x) = cosh(t sqrt(x)), h(x) = sinh(t sqrt(x)) / sqrt(x) (cos and
sin / sqrt(-x) for x < 0) and Dg, Dh their divided differences over
{x+, x-}.  The terms split into a slow part exp(-kappa t), where
kappa = gamma - sqrt(x+) is formed without cancellation, and a fast part
exp(-gamma t), so nothing overflows at large gamma t.  g and h are entire
in x: where t^2 (x+ - x-) < 1, which holds around the exceptional point
x+ = x- = 0 (zero detuning at alpha = gamma_eff / 2), the divided
differences are summed as series instead of difference quotients
(McCurdy, Ng and Parlett, "Accurate computation of divided differences
of the exponential function", Math. Comp. 43 (1984) 501-528).  The
parameters enter s only through the products of the block's entries;
nbar enters only through gamma_eff.

u: exp(C t)_00 = exp(m t) [cosh(z) + h t sinh(z) / z] of the 2x2 block,
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

# 1 / n! for the divided-difference series; with t^2 (x+ - x-) < 1 the terms
# of Dg and Dh beyond k = 10 fall below 2^-60 of the sums
_INV_FACTORIAL = [1.0 / math.factorial(n) for n in range(22)]


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

    The constants of both closed forms are read from the blocks of each
    pair's :func:`~nmqsim.model.build_generator` once, so each call is a
    fixed number of elementwise operations.  Times are not checked here:
    they must be finite and >= 0, as :func:`responses` checks.
    """
    # constants of shape (pairs, 1) broadcast over t
    gens = np.array([build_generator(params, k) for params, k in pairs])[:, :, :, None]

    # s, from products of the population block's entries b_ij = L[i+1, j+1]
    gamma = -gens[:, 2, 2].real
    b01b10, b12b21, b13b31 = (
        (gens[:, i, j] * gens[:, j, i]).real for i, j in ((1, 2), (2, 3), (2, 4))
    )
    p = gamma * gamma + b01b10 + b12b21 + b13b31
    q = -gamma * gamma * b12b21
    r = np.sqrt(p * p + 4.0 * q)
    big = 0.5 * (p + np.copysign(r, p))  # the root of larger magnitude
    other = -q / np.where(big == 0.0, 1.0, big)
    x_plus, x_minus = np.where(p >= 0.0, big, other), np.where(p >= 0.0, other, big)
    root_plus, root_minus = np.sqrt(x_plus), np.sqrt(-x_minus)
    # kappa = gamma - sqrt(x+) = (gamma^2 - x+) / (gamma + sqrt(x+)), where
    # gamma^2 - x+ = -2 gamma^2 (b01 b10 + b13 b31) / (2 gamma^2 - P + r)
    kappa_den = (2.0 * gamma * gamma - p + r) * (gamma + root_plus)
    kappa = -2.0 * gamma * gamma * (b01b10 + b13b31) / np.where(kappa_den == 0.0, 1.0, kappa_den)
    coef_g = gamma * gamma + b01b10 - x_minus  # (X^2)_00 - x-
    coef_h = gamma * (gamma * gamma + 2.0 * b01b10 - x_minus)  # (X^3)_00 - gamma x-
    # Dg and Dh are difference quotients over r where t^2 r >= 1, i.e. t >= 1 / sqrt(r);
    # there s = e^{-kappa t} [cg/r (1 + em/2) + ch/r sinh+]
    #         + e^{-gamma t} [(1 - cg/r) cos(t root-) + (gamma - ch/r) sin-]
    inv_r = np.where(r > 0.0, 1.0 / np.where(r > 0.0, r, 1.0), 0.0)
    quotient_from = np.where(r > 0.0, np.sqrt(inv_r), np.inf)
    slow_g, slow_h = coef_g * inv_r, coef_h * inv_r
    fast_g, fast_h = 1.0 - slow_g, gamma - slow_h
    plus_zero, minus_zero = root_plus == 0.0, root_minus == 0.0
    two_root_plus, half_slow_g = 2.0 * root_plus, 0.5 * slow_g
    neg_half_inv_plus = -0.5 / np.where(plus_zero, 1.0, root_plus)
    inv_minus = 1.0 / np.where(minus_zero, 1.0, root_minus)

    # u, from the coherence block shifted by its common rotation i Im m
    (c00, c01), (c10, c11) = gens[:, 5:7, 5:7].transpose(1, 2, 0, 3)
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
        neg_t = -t
        # with slow = e^{-kappa t} and em = e^{-2 t root+} - 1, e^{-gamma t} cosh(t root+)
        # = slow (1 + em / 2) and e^{-gamma t} sinh(t root+) / root+ = slow sinh_plus;
        # cos_minus and sin_minus are cos(t root-) and sin(t root-) / root-
        em = np.expm1(two_root_plus * neg_t)
        slow = np.exp(kappa * neg_t)
        sinh_plus = np.where(plus_zero, t, em * neg_half_inv_plus)
        fast = np.exp(gamma * neg_t)
        z = root_minus * t
        cos_minus = np.cos(z)
        sin_minus = np.where(minus_zero, t, np.sin(z) * inv_minus)
        s = (slow * (slow_g + half_slow_g * em + slow_h * sinh_plus)
             + fast * (fast_g * cos_minus + fast_h * sin_minus))
        near = t < quotient_from
        if near.any():
            # the series runs on every sample; capping t keeps it finite on the
            # far ones, whose values np.where drops, and leaves the near ones exact
            tc = np.minimum(t, quotient_from)
            # D_k = sum_j u^j v^(k-1-j) is the divided difference of x^k over {u, v}
            u, v = tc * tc * x_plus, tc * tc * x_minus
            term, v_pow = np.ones_like(u), np.ones_like(u)
            sum_g = sum_h = 0.0
            for k in range(1, 11):
                sum_g = sum_g + term * _INV_FACTORIAL[2 * k]
                sum_h = sum_h + term * _INV_FACTORIAL[2 * k + 1]
                v_pow = v_pow * v
                term = u * term + v_pow
            series = cos_minus + gamma * sin_minus + tc * tc * (coef_g * sum_g + coef_h * tc * sum_h)
            s = np.where(near, fast * series, s)

        em = np.expm1(two_sigma * neg_t)
        u = np.exp(lam_plus * t) * (1.0 + coh_em * em + coh_lin * t)
        return s, u

    return at


def _checked_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a non-empty 1-d array of finite values")
    # the slow/fast split is bounded only forward in time
    if np.any(times < 0.0):
        raise ValueError("times must be >= 0")
    return times


def responses(params: ModelParams, k: int, times) -> tuple[np.ndarray, np.ndarray]:
    """Population and coherence responses (s, u) of pair k at each time.

    ``times`` is a non-empty 1-d array of finite times >= 0, in any order.
    s(t) = exp(B t)_00 and u(t) = exp(C t)_00 for the blocks of
    ``build_generator(params, k)``, whose relations b01 b10 = b13 b31, real
    products b_ij b_ji and diagonal (0, -gamma, -gamma, -2 gamma) the closed
    forms rely on.
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
