"""Two scalar responses per qubit, and the two-qubit X state they build.

Each qubit couples to its own memory atom and bath, so the two pairs
evolve independently and qubit k enters the reduced two-qubit state only
through two scalar functions of time, read off its 9x9 generator L_k
(see :mod:`nmqsim.model`):

    s_k(t) = Re [exp(B_k t)]_00,   B_k = L_k[1:5, 1:5]   population response
    u_k(t) =    [exp(C_k t)]_00,   C_k = L_k[5:7, 5:7]   coherence response

With w = 2 nbar + 1, qubit k's excited population is
e_k = nbar/w + s_k (nbar + 1)/w if it starts excited and
g_k = nbar/w - s_k nbar/w if it starts in the ground state, and the Bell
state (|00> + |11>)/sqrt(2) evolves into the X state

    a = (e1 e2 + g1 g2) / 2              b = (e1 (1-e2) + g1 (1-g2)) / 2
    c = ((1-e1) e2 + (1-g1) g2) / 2      d = ((1-e1)(1-e2) + (1-g1)(1-g2)) / 2
    f = u1 u2 / 2

Both exponentials stay exact where a block is defective (for zero
detuning, at alpha = gamma_eff / 2): u has a closed form that is
continuous through the degeneracy, and s uses scaling-and-squaring
``expm`` rather than an eigendecomposition.  See Moler and Van Loan,
"Nineteen dubious ways to compute the exponential of a matrix,
twenty-five years later", SIAM Review 45 (2003).

Between grid times, :func:`cell_responses` steps both responses off the
nearest grid time t_i with a truncated Taylor series of the same
exponentials (Moler and Van Loan's method 1), so refining an event time
costs a few scalar multiply-adds per evaluation instead of new
exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import Q_INDICES

__all__ = [
    "TimeGrid",
    "cell_responses",
    "evolve_x_state",
    "responses",
    "slow_solution",
    "x_state_from_responses",
]

#: Truncation bound of the in-cell Taylor step, relative to the anchor column.
TAYLOR_TOL = 2.0**-56


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times ``linspace(t_start, t_end, num_points)``."""

    t_start: float
    t_end: float
    num_points: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_start) or not np.isfinite(self.t_end):
            raise ValueError("grid endpoints must be finite")
        if self.t_start < 0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if self.t_end <= self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")
        if int(self.num_points) != self.num_points or self.num_points < 2:
            raise ValueError(f"num_points must be an integer >= 2, got {self.num_points!r}")
        # a subnormal step cannot resolve uniformly spaced samples
        if self.step < np.finfo(float).tiny:
            raise ValueError(f"grid step {self.step:.3g} is below the smallest normal float")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.num_points)

    @property
    def step(self) -> float:
        return (self.t_end - self.t_start) / (self.num_points - 1)


def _population_response(block: np.ndarray, times: np.ndarray, dt: float) -> np.ndarray:
    """Re [exp(B t)]_00 at t_k = t_0 + k dt.

    Column 0 of exp(B t_k) is E^k v_0 with E = expm(B dt) and
    v_0 = expm(B t_0)[:, 0].  Stored as rows, V[m:2m] = V[:m] (E^m)^T, so
    the whole grid takes log2(n) batched products.  Each E^m is its own
    ``expm(B m dt)``: squaring E instead compounds roundoff to 8e-15 on
    the 2001-point preset grids, while this keeps every sample within a
    few ulps of a high-precision exponential.  The products use ``einsum``,
    not ``@``: BLAS runs tall (k, 4) @ (4, 4) products on helper threads,
    which then spin and slow every later small ``expm`` many times over.
    """
    v = np.empty((times.size, 4), dtype=complex)
    v[0] = scipy.linalg.expm(block * times[0])[:, 0]
    m = 1
    while m < times.size:
        k = min(m, times.size - m)
        v[m : m + k] = np.einsum("ij,kj->ik", v[:k], scipy.linalg.expm(block * (m * dt)))
        m += k
    return v[:, 0].real


def _coherence_column(block: np.ndarray, times: np.ndarray):
    """Column 0 of exp(C t) of a 2x2 block in closed form, as entries 00 and 10.

    Each entry has the shape of ``times``, or (P, len(times)) for a
    (P, 2, 2) stack of blocks.

    exp(C t) = exp(m t) [cosh(z) I + t sinh(z)/z (C - m I)] with m = tr C / 2,
    sigma^2 = h^2 + C_01 C_10, h = (C_00 - C_11) / 2 and z = sigma t; it is
    continuous through sigma = 0, where C is defective.  Taking Re sigma >= 0
    and factoring out exp(z) keeps every factor bounded for large t:

        exp(C t)_00 = exp((m + sigma) t) [(1 + exp(-2z)) / 2 + h t q(z)],
        exp(C t)_10 = exp((m + sigma) t) C_10 t q(z),
        q(z) = exp(-z) sinh(z) / z = (1 - exp(-2z)) / (2z),

    with a Taylor series for sinh(z)/z where |z| is small.
    """
    (c00, c01), (c10, c11) = np.moveaxis(block, (-2, -1), (0, 1))[..., None]
    mean = 0.5 * (c00 + c11)
    half = 0.5 * (c00 - c11)
    sigma = np.sqrt(half * half + c01 * c10)  # principal root: Re sigma >= 0
    z = sigma * times
    small = np.abs(z) < 0.1
    z2 = z * z
    sinhc = 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0 * (1.0 + z2 / 42.0 * (1.0 + z2 / 72.0)))
    decay = np.exp(-2.0 * z)
    q = np.where(small, np.exp(-z) * sinhc, (1.0 - decay) / (2.0 * np.where(small, 1.0, z)))
    growth = np.exp((mean + sigma) * times)
    return growth * (0.5 * (1.0 + decay) + half * times * q), growth * c10 * times * q


def responses(generator, times) -> tuple[np.ndarray, np.ndarray]:
    """Population and coherence responses (s, u) of one pair at each time.

    ``times`` must be t_0 + k dt with dt > 0 (a single time is allowed).
    """
    generator = np.asarray(generator, dtype=complex)
    if generator.shape != (9, 9):
        raise ValueError(f"generator must be 9x9, got shape {generator.shape}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a non-empty 1-d array of finite values")
    dt = (times[-1] - times[0]) / max(times.size - 1, 1)
    # linspace places every sample within a few ulps of t_0 + k dt
    offgrid = np.abs(times - times[0] - dt * np.arange(times.size)).max()
    if times.size > 1 and (dt <= 0.0 or offgrid > 1e-12 * np.abs(times).max()):
        raise ValueError("times must be increasing and uniformly spaced")
    s = _population_response(generator[1:5, 1:5], times, dt)
    u = _coherence_column(generator[5:7, 5:7], times)[0]
    return s, u


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


def evolve_x_state(generators, nbar: float, times):
    """X-state components (a, b, c, d, f) of the evolved Bell state at each time.

    ``generators`` are the 9x9 generators of pairs 1 and 2; ``times`` must
    be uniformly spaced (a single time is allowed).
    """
    (s1, u1), (s2, u2) = (responses(generator, times) for generator in generators)
    return x_state_from_responses(s1, u1, s2, u2, nbar)


def taylor_degree(norm: float) -> int:
    """Smallest K with norm^(K+1) / (K+1)! * e^norm <= TAYLOR_TOL.

    With norm >= ||X h||_1 this bounds, relative to ||v||_1, the truncation
    error of sum_{k <= K} (X tau)^k / k! v for every |tau| <= h.
    """
    degree, term = 0, norm * math.exp(norm)
    while term > TAYLOR_TOL:
        degree += 1
        term *= norm / (degree + 1)
    return degree


def _taylor_rows(blocks: np.ndarray, degree: int) -> np.ndarray:
    """Row 0 of X^k / k! for k = 0..degree, for each X of a (P, n, n) stack."""
    rows = np.zeros((blocks.shape[0], degree + 1, blocks.shape[-1]), dtype=complex)
    rows[:, 0, 0] = 1.0
    for k in range(1, degree + 1):
        rows[:, k] = np.einsum("pi,pij->pj", rows[:, k - 1], blocks) / k
    return rows


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k for coefficients given highest degree first."""
    acc = 0.0
    for coeff in coeffs:
        acc = acc * x + coeff
    return acc


def cell_responses(generators, grid: TimeGrid):
    """Evaluator t -> (s1, u1, s2, u2) of pairs 1 and 2 at any time.

    The first call at a time t takes the grid time t_i = t_start + i dt
    nearest to t, computes column 0 of exp(X t_i) once for each block X
    (B and C of both pairs) and caches the coefficients
    c_k = (row 0 of (X dt)^k / k!) . column, so that

        s(t_i + tau) = Re sum_k c_k (tau / dt)^k,   u(t_i + tau) likewise, not Re.

    Later calls within dt of t_i reuse that cell, so one event bracket
    [t_i, t_i+1] costs one stacked ``expm`` of the two B blocks and one
    closed form of the two C blocks.  The degree K of each block is fixed
    per evaluator by :func:`taylor_degree` at ||X dt||_1, so the truncation
    error is at most 2^-56 of the column.  Where ||X dt||_1 > 1 for any
    block (a huge qubit frequency, or strong damping on a coarse grid)
    every call falls back to the single-time :func:`responses`.  The
    evaluator holds one cell and no grid-length array.
    """
    dt = grid.step
    # brentq's bracket ends lie within rounding of t_i and t_i + dt
    reach = dt * (1.0 + 1e-9)
    stacks = [
        np.stack([np.asarray(g, dtype=complex)[sl, sl] for g in generators])
        for sl in (slice(1, 5), slice(5, 7))
    ]
    norms = [float(np.abs(x).sum(axis=-2).max()) * reach for x in stacks]
    if max(norms) > 1.0:

        def single_time(t):
            (s1, u1), (s2, u2) = (responses(g, [t]) for g in generators)
            return s1[0], u1[0], s2[0], u2[0]

        return single_time
    # highest degree first, for Horner's scheme
    rows = [_taylor_rows(x * dt, taylor_degree(n))[:, ::-1] for x, n in zip(stacks, norms)]
    cell = {}

    def at(t):
        t = float(t)
        if not cell or abs(t - cell["t"]) > reach:
            anchor = grid.t_start + round((t - grid.t_start) / dt) * dt
            # column 0 as a single-time responses() call computes it
            pop = scipy.linalg.expm(stacks[0] * anchor)[:, :, 0]
            coh = np.hstack(_coherence_column(stacks[1], np.array([anchor])))
            pop, coh = (np.einsum("pkj,pj->pk", r, col) for r, col in zip(rows, (pop, coh)))
            cell.update(t=anchor, pop=pop.real.tolist(), coh=coh.tolist())
        x = (t - cell["t"]) / dt
        (s1, s2), (u1, u2) = (
            [_horner(c, x) for c in cell[key]] for key in ("pop", "coh")
        )
        return s1, u1, s2, u2

    return at


def slow_solution(generator, init, times) -> np.ndarray:
    """``exp(L t) c(0)`` on the slow indices 0, 1, 5, 7, shape (len(times), 9).

    c(0) must vanish on the other indices.  Index 0 is stationary, index 1
    scales by s(t), index 5 by u(t) and index 7 by conj(u(t)), because the
    {7, 8} block is the complex conjugate of the {5, 6} block.
    """
    init = np.asarray(init, dtype=complex)
    if init.shape != (9,) or np.any(init[list(Q_INDICES)]):
        raise ValueError("initial vector must have 9 components, zero off indices 0, 1, 5, 7")
    s, u = responses(generator, times)
    out = np.zeros((s.size, 9), dtype=complex)
    out[:, 0] = init[0]
    out[:, 1] = s * init[1]
    out[:, 5] = u * init[5]
    out[:, 7] = np.conj(u) * init[7]
    return out
