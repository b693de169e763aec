"""End-to-end simulation: responses, X state, entanglement.

This is the path the CLI drives.  Each qubit enters only through its
coherence response u_k, with population response s_k = |u_k|^2 (see
:mod:`nmqsim.propagator`), a closed form that gives the X-state components
at any time, not just on the sample grid.
The continuous-time precursor used to refine event times calls the grid's
response evaluator, whose constants are computed once per run, on an array
of times and builds the X state with the same formula as the grid,
:func:`~nmqsim.propagator.x_state_from_responses`.
"""

from dataclasses import dataclass

import numpy as np

from .entanglement import EntanglementSeries, precursor_from_components
from .model import ModelParams
from .propagator import TimeGrid, _response_evaluator, x_state_from_responses

__all__ = ["HEALTH_TOL", "RunHealthError", "SimulationResult", "simulate"]

#: Slack allowed on each run-health condition checked by :func:`simulate`.
HEALTH_TOL = 1e-9


class RunHealthError(ArithmeticError):
    """A run produced non-finite or unphysical X-state components."""


@dataclass(frozen=True)
class SimulationResult:
    """Everything one run produces: X components and entanglement series."""

    params: ModelParams
    grid: TimeGrid
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    f: np.ndarray
    series: EntanglementSeries


def _check_health(a, b, c, d, f) -> None:
    """Raise RunHealthError unless the components form a density matrix."""
    if not all(np.all(np.isfinite(x)) for x in (a, b, c, d, f)):
        raise RunHealthError("non-finite X-state component")
    worst = min(float(x.min()) for x in (a, b, c, d))
    if worst < -HEALTH_TOL:
        raise RunHealthError(f"negative population {worst:.3e}")
    excess = float((np.abs(f) ** 2 - a * d).max())
    if excess > HEALTH_TOL:
        raise RunHealthError(f"|f|^2 exceeds ad by {excess:.3e}")
    trace_dev = float(np.abs(a + b + c + d - 1.0).max())
    if trace_dev > HEALTH_TOL:
        raise RunHealthError(f"trace differs from 1 by {trace_dev:.3e}")


def simulate(params: ModelParams, grid: TimeGrid) -> SimulationResult:
    """Run the primary pipeline on a time grid.

    Raises RunHealthError, an ArithmeticError, when the components are
    non-finite or not a density matrix to within HEALTH_TOL.
    """
    # overflow and NaN are reported once, by the health check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        responses_at = _response_evaluator([(params, 1), (params, 2)])
        (s1, s2), (u1, u2) = responses_at(grid.points)
        a, b, c, d, f = x_state_from_responses(s1, u1, s2, u2, params.nbar)
    _check_health(a, b, c, d, f)

    def precursor_at(t: np.ndarray) -> np.ndarray:
        (s1, s2), (u1, u2) = responses_at(t)
        _, bt, ct, _, ft = x_state_from_responses(s1, u1, s2, u2, params.nbar)
        return precursor_from_components(bt, ct, ft)

    series = EntanglementSeries(
        grid=grid, precursor=precursor_from_components(b, c, f), precursor_fn=precursor_at
    )
    return SimulationResult(params=params, grid=grid, a=a, b=b, c=c, d=d, f=f, series=series)
