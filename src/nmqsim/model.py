"""Parameters and coefficient-space generator for the qubit + memory-atom model.

Physical setting
----------------
Two non-interacting qubits (labelled 1 and 2) are each exchange-coupled,
with strength ``alpha_k``, to a single auxiliary two-level atom (labelled
3 and 4 respectively).  The auxiliary atoms are damped by broadband
thermal baths with rate ``gamma`` and mean occupation ``nbar``, so each
qubit sees a structured, non-Markovian environment: the auxiliary atom
acts as a one-atom memory whose effective decoherence rate is
``gamma_eff = (2*nbar + 1) * gamma``.

Basis conventions (used everywhere in this package)
---------------------------------------------------
* Single two-level systems are ordered EXCITED FIRST: basis index 0 is
  the excited state ``|1>``, index 1 is the ground state ``|0>``.  Hence
  ``sigma_plus = |1><0| = [[0, 1], [0, 0]]`` and the thermal state is
  ``diag(nbar, nbar + 1) / (2*nbar + 1)``.
* Two-qubit matrices are ordered ``|11>, |10>, |01>, |00>`` (qubit 1 is
  the slow index).
* Reduced frequencies: ``hbar = 1`` throughout; ``omega1, omega2`` are
  the qubit frequencies, ``omega3, omega4`` the auxiliary-atom
  frequencies and ``delta_k = omega_k - omega_{k+2}`` the detunings.

Coefficient space
-----------------
For each qubit/auxiliary pair the dynamics closes on a nine-operator
basis, so a pair state is a nine-component complex coefficient vector
evolving as ``dc/dt = L c`` with the sparse generator built by
:func:`build_generator`.  The basis index layout is

====  ==============================================================
 0    thermal product state of the pair (stationary reference)
 1    qubit population imbalance on top of the thermal auxiliary atom
 2    antisymmetric qubit/auxiliary exchange coherence
 3    symmetric qubit/auxiliary exchange coherence
 4    auxiliary-atom population imbalance under the thermal qubit
 5    qubit raising coherence times thermal auxiliary atom
 6    auxiliary raising coherence times weighted qubit populations
 7    qubit lowering coherence (adjoint partner of index 5)
 8    auxiliary lowering coherence (adjoint partner of index 6)
====  ==============================================================

The generator is block diagonal over the index groups ``{0}``,
``{1, 2, 3, 4}``, ``{5, 6}`` and ``{7, 8}``; the last block is the
elementwise complex conjugate of the ``{5, 6}`` block.  Indices
``{0, 1, 5, 7}`` survive a partial trace over the auxiliary atom and
form the "relevant" subspace used by the memory-kernel treatment.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "P_INDICES",
    "Q_INDICES",
    "InitialTerm",
    "ModelParams",
    "ParameterError",
    "build_generator",
    "initial_coefficients",
    "thermal_state",
]

#: Coefficient indices that survive the partial trace over the auxiliary atom.
P_INDICES: tuple[int, ...] = (0, 1, 5, 7)

#: Complement of :data:`P_INDICES`; traced out by the reduced description.
Q_INDICES: tuple[int, ...] = (2, 3, 4, 6, 8)


class ParameterError(ValueError):
    """Raised when model parameters are unphysical or inconsistent.

    ``field`` names the :class:`ModelParams` field at fault, when one is.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InitialTerm(enum.Enum):
    """The four single-qubit operators that start the memory-kernel check.

    Each names a qubit operator that, with the auxiliary atom thermal,
    :func:`initial_coefficients` turns into the pair's four slow
    components.  The memory-kernel check solves the projected equation
    from these vectors and compares with the direct solution; the primary
    path does not use them.
    """

    EE = "ee"  # |1><1| on the qubit
    GG = "gg"  # |0><0| on the qubit
    GE = "ge"  # |0><1| on the qubit (lowering coherence)
    EG = "eg"  # |1><0| on the qubit (raising coherence)


@dataclass(frozen=True)
class ModelParams:
    """Frequencies, couplings and bath parameters of the four-atom model.

    All frequencies are angular frequencies in units with ``hbar = 1``.
    ``gamma`` must be non-negative (it is a damping rate) and ``nbar``
    must be non-negative (it is a thermal occupation).  Couplings and
    detunings may take either sign, and zero coupling is allowed.
    ``pair(k)`` gives pair k's qubit frequency, auxiliary frequency and
    coupling; the detuning ``delta_k`` is the first less the second.
    """

    omega1: float
    omega2: float
    omega3: float
    omega4: float
    alpha1: float
    alpha2: float
    gamma: float
    nbar: float

    def __post_init__(self) -> None:
        for name in (field.name for field in fields(self)):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(f"{name} must be a real number, got {value!r}", name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}", name)
        if self.gamma < 0:
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}", "gamma")
        if self.nbar < 0:
            raise ParameterError(f"nbar must be >= 0, got {self.nbar}", "nbar")

    @classmethod
    def from_detunings(
        cls,
        *,
        omega1: float,
        delta1: float,
        delta2: float,
        alpha1: float,
        alpha2: float,
        gamma: float,
        nbar: float,
        omega2: float | None = None,
    ) -> "ModelParams":
        """Build parameters from qubit frequencies and detunings.

        ``omega2`` defaults to ``omega1`` (the symmetric configuration used
        by all bundled presets); the auxiliary frequencies follow from
        ``omega_{k+2} = omega_k - delta_k``.
        """
        w2 = omega1 if omega2 is None else omega2
        return cls(
            omega1=omega1,
            omega2=w2,
            omega3=omega1 - delta1,
            omega4=w2 - delta2,
            alpha1=alpha1,
            alpha2=alpha2,
            gamma=gamma,
            nbar=nbar,
        )

    @property
    def gamma_eff(self) -> float:
        """Effective decoherence rate ``(2*nbar + 1) * gamma``."""
        return (2.0 * self.nbar + 1.0) * self.gamma

    def pair(self, k: int) -> tuple[float, float, float]:
        """Pair k's (qubit frequency, auxiliary frequency, coupling), k = 1 or 2."""
        _check_subsystem(k)
        if k == 1:
            return self.omega1, self.omega3, self.alpha1
        return self.omega2, self.omega4, self.alpha2


def _check_subsystem(k: int) -> None:
    try:
        # Python and numpy integers only: bool is an int but not a pair index
        index = None if isinstance(k, bool) else operator.index(k)
    except TypeError:
        index = None
    if index not in (1, 2):
        raise ParameterError(f"subsystem index must be 1 or 2, got {k!r}")


def thermal_state(nbar: float) -> np.ndarray:
    """Thermal state of a damped two-level atom, excited-first ordering.

    Returns ``diag(nbar, nbar + 1) / (2*nbar + 1)``: the excited-state
    population sits in the [0, 0] entry.  For ``nbar = 0`` this is the
    ground state; for ``nbar -> inf`` it tends to the maximally mixed
    state.
    """
    if not math.isfinite(nbar) or nbar < 0:
        raise ParameterError(f"nbar must be finite and >= 0, got {nbar!r}")
    z = 2.0 * nbar + 1.0
    return np.diag([nbar / z, (nbar + 1.0) / z])


def initial_coefficients(term: InitialTerm, nbar: float) -> np.ndarray:
    """Slow components of one qubit operator for a single pair, shape (4,).

    The auxiliary atom always starts in its thermal state, so each qubit
    operator expands exactly in the nine-operator basis, on the slow
    indices alone.  The result holds those components in
    :data:`P_INDICES` order (0, 1, 5, 7):

    * ``EE``: ``|1><1|`` = thermal reference + population imbalance,
      giving ``(1, (nbar+1)/(2*nbar+1), 0, 0)``.
    * ``GG``: ``|0><0|`` gives ``(1, -nbar/(2*nbar+1), 0, 0)``.
    * ``EG``: ``|1><0|`` is the raising coherence on index 5,
      ``(0, 0, 1, 0)``.
    * ``GE``: ``|0><1|`` is the lowering coherence on index 7,
      ``(0, 0, 0, 1)``.
    """
    if not math.isfinite(nbar) or nbar < 0:
        raise ParameterError(f"nbar must be finite and >= 0, got {nbar!r}")
    z = 2.0 * nbar + 1.0
    c = np.zeros(len(P_INDICES), dtype=complex)
    if term is InitialTerm.EE:
        c[0] = 1.0
        c[1] = (nbar + 1.0) / z
    elif term is InitialTerm.GG:
        c[0] = 1.0
        c[1] = -nbar / z
    elif term is InitialTerm.EG:
        c[2] = 1.0
    elif term is InitialTerm.GE:
        c[3] = 1.0
    else:  # pragma: no cover - exhaustive over the enum
        raise ParameterError(f"unknown initial term {term!r}")
    return c


def build_generator(params: ModelParams, k: int) -> np.ndarray:
    """Dense 9x9 generator of one qubit/auxiliary pair, ``dc/dt = L c``.

    Entry ``L[m, n]`` is the coefficient of basis operator ``m`` produced
    by the generator acting on basis operator ``n``.  Row and column 0
    vanish identically (the thermal product state is stationary), the
    populations close on indices ``{1, 2, 3, 4}`` and the two coherence
    sectors ``{5, 6}`` and ``{7, 8}`` are mutual complex conjugates.
    """
    omega, omega_aux, alpha = params.pair(k)
    delta = omega - omega_aux
    ge = params.gamma_eff

    L = np.zeros((9, 9), dtype=complex)

    # population sector
    L[1, 2] = -2j * alpha
    L[2, 1] = -1j * alpha
    L[2, 2] = -ge
    L[2, 3] = 1j * delta
    L[2, 4] = 1j * alpha
    L[3, 2] = 1j * delta
    L[3, 3] = -ge
    L[4, 2] = 2j * alpha
    L[4, 4] = -2.0 * ge

    # raising-coherence sector
    L[5, 5] = -1j * omega
    L[5, 6] = -1j * alpha
    L[6, 5] = -1j * alpha
    L[6, 6] = -(ge + 1j * omega_aux)

    # lowering-coherence sector: conjugate of the raising sector
    L[7, 7] = 1j * omega
    L[7, 8] = 1j * alpha
    L[8, 7] = 1j * alpha
    L[8, 8] = -(ge - 1j * omega_aux)

    return L
