"""The reduced two-qubit density matrix as an X state.

Each qubit enters the reduced state only through its population and
coherence responses s_k and u_k (see :mod:`nmqsim.propagator`), which give
the five X-state numbers a, b, c, d and f directly; the dynamics never
leaves the X pattern, so the primary path stores only those five arrays.
The 4x4 matrix is built on demand for the cross-checks and tests that
compare all sixteen entries.

Basis order is excited-first everywhere, so the two-qubit product basis is
(|11>, |10>, |01>, |00>) and the Bell initial state has 1/2 at the four
corners of the 4x4 matrix.
"""

import numpy as np

__all__ = ["x_matrix", "physicality_deviations"]


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


def physicality_deviations(rhos: np.ndarray):
    """Worst-case physicality deviations over a (n, 4, 4) series.

    Returns (trace deviation, Hermiticity deviation, smallest eigenvalue).
    """
    rhos = np.asarray(rhos)
    trace_dev = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0).max()
    herm_dev = np.abs(rhos - np.conj(np.swapaxes(rhos, -2, -1))).max()
    herm = 0.5 * (rhos + np.conj(np.swapaxes(rhos, -2, -1)))
    min_eig = np.linalg.eigvalsh(herm).min()
    return float(trace_dev), float(herm_dev), float(min_eig)
