"""Concurrence, entanglement of formation, and death/revival bookkeeping.

Two independent routes to the concurrence are provided.  The analytic
X-state formula C = 2 max(0, |f| - sqrt(b c)) is the default path; the
general eigenvalue construction (spin-flip, square roots of eigenvalues of
rho rho~) exists to cross-check it and is an order of magnitude costlier.
It comes with the state test: :func:`state_certificate` reports how far a
stack of 4x4 matrices is from being states (trace, Hermiticity, smallest
eigenvalue) from the same one eigendecomposition per matrix, and
:func:`concurrence_general_series` refuses what lies beyond INPUT_TOL.

The unclamped quantity 2(|f| - sqrt(b c)), called the precursor here, is
what the dynamics actually drives; the concurrence is its positive part.
Watching the precursor go negative and come back is how sudden death and
revival are detected.
"""

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import ModelParams
from .propagator import TimeGrid

__all__ = [
    "DEFAULT_THRESHOLD",
    "EventKind",
    "EntanglementEvent",
    "EntanglementSeries",
    "concurrence_general_series",
    "state_certificate",
    "precursor_from_components",
    "entanglement_of_formation",
    "markovian_rate",
    "extract_events",
]

# largest Hermiticity, trace or negative-eigenvalue defect accepted as a state
INPUT_TOL = 1e-6

#: Death level of :func:`extract_events` and of scenario files that set none.
DEFAULT_THRESHOLD = 1e-6

# sigma_y (x) sigma_y is anti-diagonal in the (|11>,|10>,|01>,|00>) product
# basis, with row signs (-1, 1, 1, -1); the value is ordering-independent up
# to this sign pattern.
_FLIP_SIGN = np.outer([-1, 1, 1, -1], [-1, 1, 1, -1])


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """rho~ = (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y), for one matrix or a stack.

    The sandwich by the signed anti-diagonal matrix reverses both indices
    and multiplies entry (i, j) by s_i s_j.
    """
    return _FLIP_SIGN * np.conj(rho)[..., ::-1, ::-1]


def state_certificate(rhos: np.ndarray):
    """How far a stack of 4x4 matrices is from being states, and its concurrence.

    Returns (trace deviation, Hermiticity deviation, smallest eigenvalue,
    concurrence): the largest |tr rho - 1| and the largest entry of
    |rho - rho^dagger| over the stack, the smallest eigenvalue of any
    Hermitian part (rho + rho^dagger)/2, and the eigenvalue-route
    concurrence of each matrix, an array of the leading batch shape (a
    single matrix gives shape (1,)).  It refuses only a stack that is not
    4x4, is empty or is not finite; how far off a state it is, it reports.

    The concurrence takes the lambda_i as singular values of
    sqrt(rho~) sqrt(rho), which equal the square roots of the eigenvalues
    of rho rho~ but do not suffer the square-root-of-epsilon noise
    amplification of diagonalizing the non-Hermitian product directly.
    sigma_y (x) sigma_y is real, symmetric and its own inverse, so
    sqrt(rho~) is the spin flip of sqrt(rho), and the one eigendecomposition
    per matrix of the Hermitian part gives the roots and the smallest
    eigenvalue.  Negative eigenvalues are taken as 0 in the roots.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.shape[-2:] != (4, 4):
        raise ValueError(f"input must be 4x4 density matrices, got shape {rhos.shape}")
    if rhos.size == 0 or not np.isfinite(rhos).all():
        raise ValueError("input holds no matrices" if rhos.size == 0 else "input is not finite")
    adjoint = np.conj(np.swapaxes(rhos, -2, -1))
    herm_dev = float(np.abs(rhos - adjoint).max())
    trace_dev = float(np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0).max())
    w, v = np.linalg.eigh(0.5 * (rhos + adjoint))
    root = np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(np.clip(w, 0.0, None)), np.conj(v))
    lam = np.linalg.svd(spin_flip(root) @ root, compute_uv=False)  # descending
    c = np.clip(lam[..., 0] - lam[..., 1:].sum(axis=-1), 0.0, 1.0)
    return trace_dev, herm_dev, float(w.min()), np.atleast_1d(c)


def concurrence_general_series(rhos: np.ndarray) -> np.ndarray:
    """Eigenvalue-route concurrence of a stack of 4x4 density matrices.

    This is the concurrence of :func:`state_certificate` for a stack it
    takes as states: a Hermiticity or trace deviation above INPUT_TOL, or an
    eigenvalue below -INPUT_TOL, raises ValueError.  Any leading batch
    shape is accepted; a single matrix gives shape (1,).
    """
    trace_dev, herm_dev, min_eig, c = state_certificate(rhos)
    if herm_dev > INPUT_TOL:
        raise ValueError(f"input not Hermitian: max deviation {herm_dev:.3e}")
    if trace_dev > INPUT_TOL:
        raise ValueError(f"input trace differs from 1 by {trace_dev:.3e}")
    if min_eig < -INPUT_TOL:
        raise ValueError(f"input not positive semidefinite: min eigenvalue {min_eig:.3e}")
    return c


def precursor_from_components(b, c, f) -> np.ndarray:
    """Unclamped 2(|f| - sqrt(b c)) from component arrays; negative values measure how dead.

    The analytic concurrence of an X state is its positive part.
    """
    bc = np.maximum(b, 0.0) * np.maximum(c, 0.0)
    return 2.0 * (np.abs(f) - np.sqrt(bc))


def entanglement_of_formation(concurrence) -> np.ndarray | float:
    """EoF from concurrence via the binary-entropy formula.

    E = h((1 + sqrt(1 - C^2))/2) with h(x) = -x log2 x - (1-x) log2(1-x);
    the endpoints are defined by the limit 0 log 0 = 0.
    """
    c = np.asarray(concurrence, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("concurrence must be finite")
    if (c < -1e-12).any() or (c > 1.0 + 1e-12).any():
        raise ValueError("concurrence outside [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    x = 0.5 * (1.0 + np.sqrt(1.0 - c * c))
    # x >= 1/2, so only 1 - x can be 0; log(1) stands in for log(0) there,
    # and + 0.0 turns the -0.0 of C = 0 into 0.0
    y = 1.0 - x
    ent = -(x * np.log(x) + y * np.log(np.where(y > 0.0, y, 1.0))) / np.log(2.0) + 0.0
    if np.isscalar(concurrence) or np.ndim(concurrence) == 0:
        return float(ent)
    return ent


def markovian_rate(params: ModelParams, k: int) -> float:
    """Effective decay rate alpha_k^2 / gamma / (2 nbar + 1)^2 of the memoryless limit.

    This is the rate at which qubit k's coherence (amplitude) decays once
    the auxiliary atom is eliminated adiabatically; its populations relax
    at twice this rate.  At nbar = 0 the Bell-state concurrence therefore
    decays as exp(-4 * rate * t).
    """
    if params.gamma <= 0.0:
        raise ValueError("markovian rate requires gamma > 0")
    return params.pair(k)[2] ** 2 / params.gamma / (2.0 * params.nbar + 1.0) ** 2


class EventKind(enum.Enum):
    DEATH = "DEATH"
    REVIVAL = "REVIVAL"
    FINAL_DEATH = "FINAL_DEATH"


@dataclass(frozen=True)
class EntanglementEvent:
    """A zero-crossing event of the entanglement precursor.

    time is the crossing between two adjacent grid samples, refined to
    1e-10 by Illinois false position on the series' continuous-time
    precursor, or on the linear interpolant of the samples when the series
    has none.
    precise is False when the dead interval spans a single grid sample
    (sign pattern + - + across adjacent points), in which case the time
    is only grid-resolution accurate.  The flag is the library's only
    record of such a crossing: nothing is warned, and callers that want
    to report it read ``event.precise``.
    """

    kind: EventKind
    time: float
    precise: bool = True


@dataclass(frozen=True)
class EntanglementSeries:
    """Precursor sampled on a time grid, with the concurrence and EoF derived from it.

    concurrence is the precursor's positive part, at most 1, and eof the
    entanglement of formation of that; both are computed when read, so a
    caller that never reads the EoF never computes it.

    precursor_fn, when provided, evaluates the same precursor at an array
    of arbitrary times and returns an array of the same shape; a
    scalar-only callable such as ``math.cos`` does not work.  Event
    extraction refines every crossing time on it at once (see
    :func:`extract_events`), and on the linear interpolant of the samples
    without it.  The one :func:`~nmqsim.pipeline.simulate` builds
    evaluates the same closed-form responses as the grid at the requested
    times, with their constants computed once per run.
    """

    grid: TimeGrid
    precursor: np.ndarray
    precursor_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if np.ndim(self.precursor) != 1:
            raise ValueError("precursor must be 1-d")
        if len(self.precursor) != self.grid.num_points:
            raise ValueError("precursor length does not match the grid")
        if not np.all(np.isfinite(self.precursor)):
            raise ValueError("precursor samples must be finite")

    @property
    def concurrence(self) -> np.ndarray:
        return np.clip(self.precursor, 0.0, 1.0)

    @property
    def eof(self) -> np.ndarray:
        return entanglement_of_formation(self.concurrence)


def _scan(s: np.ndarray, threshold: float):
    """(kind, i, level, precise) of each event, crossing between samples i and i+1.

    Sample j is dead when the last sample <= j below ``threshold`` comes
    after the last sample <= j above sqrt(threshold); both indices are
    running maxima, so the scan has no Python loop over samples.  Each
    dead run gives a DEATH (unless it starts at sample 0) and, unless it
    lasts to the end, a REVIVAL; a run of one sample makes both imprecise.
    """
    idx = np.arange(s.size)
    last_below = np.maximum.accumulate(np.where(s < threshold, idx, -1))
    last_above = np.maximum.accumulate(np.where(s > np.sqrt(threshold), idx, -1))
    edges = np.diff((last_below > last_above).astype(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(edges == 1).tolist()  # first dead sample of a run
    ends = np.flatnonzero(edges == -1).tolist()  # first live sample after it
    events = []
    for k, start in enumerate(starts):
        precise = k == len(ends) or ends[k] - start >= 2
        if start > 0:
            events.append((EventKind.DEATH, start - 1, threshold, precise))
        if k < len(ends):
            events.append((EventKind.REVIVAL, ends[k] - 1, float(np.sqrt(threshold)), precise))
    if len(ends) < len(starts) and starts[-1] > 0:
        events[-1] = (EventKind.FINAL_DEATH,) + events[-1][1:]
    return events


def extract_events(series: EntanglementSeries, threshold: float = DEFAULT_THRESHOLD):
    """Detect entanglement deaths and revivals from the precursor.

    The precursor of this model touches zero tangentially in several
    regimes (it can reach exactly zero without changing sign), so raw
    sign crossings are not a usable death test.  Instead a two-level
    scheme is used:

      * DEATH fires when the precursor drops below `threshold`, the
        numerical-zero level separating true vanishing from floating
        noise.
      * REVIVAL fires when, once dead, the precursor climbs back above
        sqrt(threshold).  Recoveries smaller than that are indistinct
        from the tail of a tangential touch and do not count as a
        return of entanglement.

    The revival level lies at or above the death level only for
    threshold <= 1, so threshold must lie in (0, 1].  With the default
    DEFAULT_THRESHOLD = 1e-6 the revival level is 1e-3, the
    measurable-concurrence scale.  If the series ends in the dead state
    the last DEATH is reported as FINAL_DEATH.

    The brackets come from a scan with no Python loop over samples (see
    _scan).  All crossing times are refined together (see _refine) on
    series.precursor_fn when available, otherwise on the linear
    interpolant of the samples, where they land on the chord's crossing;
    the evaluator that simulate() provides is the grid's closed form at
    any time (see EntanglementSeries).  A bracket whose ends take the same
    sign, or a non-finite precursor value, raises ValueError, and a
    crossing not found in 100 steps raises RuntimeError.  The events of a
    death interval shorter than two grid steps carry precise=False; no
    warning is raised.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    s = np.asarray(series.precursor, dtype=float)
    t = series.grid.points
    fn = series.precursor_fn or (lambda u: np.interp(u, t, s))
    events = _scan(s, threshold)
    if not events:
        return []
    kinds, i, levels, precise = zip(*events)
    # each crossing of its level lies between samples i and i+1
    i = np.array(i)
    times = _refine(fn, t[i], t[i + 1], np.array(levels))
    return [EntanglementEvent(*event) for event in zip(kinds, times.tolist(), precise)]


def _refine(fn, a, b, level):
    """Root of fn - level in each bracket [a, b], by Illinois false position.

    Every step calls fn once, on an array holding every bracket (Dowell and
    Jarratt, BIT 11 (1971) 168-174).  The stopping rule is that of Brent's
    method with xtol 1e-10 and rtol 4 eps: a bracket is done on an exact
    zero or once |b - a| <= 1e-10 + 4 eps |b|, where b is its latest point.
    Done brackets take no step and keep their values.
    """
    fa, fb = np.split(_finite(fn(np.concatenate((a, b))) - np.tile(level, 2)), 2)
    if np.any(np.sign(fa) * np.sign(fb) > 0.0):
        raise ValueError("the precursor takes the same sign at both ends of a bracket")
    # an end on the level is the root
    b, fb = np.where(fa == 0.0, a, b), np.where(fa == 0.0, 0.0, fb)
    for _ in range(100):
        active = (fb != 0.0) & (np.abs(b - a) > 1e-10 + 4.0 * np.finfo(float).eps * np.abs(b))
        if not active.any():
            return b
        step = np.divide(fb * (b - a), fb - fa, out=np.zeros_like(b), where=active)
        # rounding can put the false-position point just outside the bracket
        c = np.clip(b - step, np.minimum(a, b), np.maximum(a, b))
        fc = _finite(fn(c) - level)
        # keep the end across the root from c; halve its value if it is kept again
        flip = (fc > 0.0) != (fb > 0.0)
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = c, np.where(active, fc, fb)
    raise RuntimeError("event refinement did not converge in 100 steps")


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("the precursor is not finite inside a bracket")
    return values
