"""Brute-force ground truth in the full 16-dimensional Hilbert space.

Everything here deliberately avoids the coefficient-space machinery: the
four-atom master equation is built as a dense 256x256 superoperator, and
the state is carried only on the components of vec rho that its sparsity
pattern can reach from the initial support.  The Liouvillian does not
depend on time, so one grid step is one fixed linear map; a generic
adaptive Runge-Kutta method (DOP853, at RTOL and ATOL) integrates that map
once from the identity, and it is then applied at every step.  The primary
path evaluates closed forms in the entries of the 9x9 coefficient-space
generator; this one uses neither that generator nor those formulas, but
builds the dynamics from the Hamiltonian and the dissipator in Hilbert
space and integrates it numerically, so a mistake in the generator, the
response formulas or the X-state read-out shows up as a disagreement, and
its error is Runge-Kutta truncation rather than the closed forms' rounding.
Agreement between the two is the strongest correctness statement the
package makes.

Also provides the Choi-matrix test of complete positivity for the reduced
single-qubit maps.  For that purpose the dynamics factorizes into two
independent qubit + auxiliary-atom pairs, each living in a 4-dimensional
Hilbert space.
"""

import gc

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp

from .model import ModelParams, thermal_state
from .propagator import TimeGrid

__all__ = [
    "build_full_liouvillian",
    "evolve_full",
    "partial_trace_34",
    "bell_state",
    "full_initial_state",
    "pair_liouvillian",
    "choi_of_subsystem_map",
    "subsystem_transfer_matrix",
    "apply_product_map",
]

# DOP853 tolerances of the 16-dimensional integration
RTOL = 1e-10
ATOL = 1e-12

# excited-first single-qubit operators
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # raising
_SM = _SP.T.copy()  # lowering
_NUM = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # |1><1|
_I2 = np.eye(2, dtype=complex)


def _embed(op: np.ndarray, site: int, nsites: int) -> np.ndarray:
    """op acting on one tensor factor, identity elsewhere (factor order 1..nsites)."""
    out = np.array([[1.0 + 0.0j]])
    for n in range(1, nsites + 1):
        out = np.kron(out, op if n == site else _I2)
    return out


def _commutator_superop(h: np.ndarray) -> np.ndarray:
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def _thermal_dissipator(lower: np.ndarray, gamma: float, nbar: float) -> np.ndarray:
    """gamma(nbar+1)(2 L rho L+ - L+L rho - rho L+L) + gamma nbar (raising analogue)."""
    d = lower.shape[0]
    eye = np.eye(d, dtype=complex)
    raise_ = lower.conj().T
    down = 2.0 * np.kron(lower, lower.conj()) \
        - np.kron(raise_ @ lower, eye) - np.kron(eye, (raise_ @ lower).T)
    up = 2.0 * np.kron(raise_, raise_.conj()) \
        - np.kron(lower @ raise_, eye) - np.kron(eye, (lower @ raise_).T)
    return gamma * (nbar + 1.0) * down + gamma * nbar * up


def build_full_liouvillian(params: ModelParams) -> np.ndarray:
    """Dense superoperator of the four-atom master equation (256x256)."""
    h = np.zeros((16, 16), dtype=complex)
    for site in (1, 2, 3, 4):
        freq = (
            params.qubit_frequency(site)
            if site <= 2
            else params.auxiliary_frequency(site - 2)
        )
        h += freq * _embed(_NUM, site, 4)
    for k, partner in ((1, 3), (2, 4)):
        h += params.coupling(k) * (
            _embed(_SP, k, 4) @ _embed(_SM, partner, 4)
            + _embed(_SM, k, 4) @ _embed(_SP, partner, 4)
        )
    liouv = _commutator_superop(h)
    for partner in (3, 4):
        liouv += _thermal_dissipator(
            _embed(_SM, partner, 4), params.gamma, params.nbar
        )
    return liouv


def bell_state() -> np.ndarray:
    """(|11> + |00>)/sqrt(2) as a two-qubit density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def full_initial_state(rho12: np.ndarray, nbar: float) -> np.ndarray:
    """rho12 on atoms 1,2 with both auxiliary atoms thermal."""
    th = thermal_state(nbar)
    return np.kron(np.kron(rho12, th), th)


def _reachable(liouv: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Components reachable from ``support`` through the sparsity pattern of liouv."""
    pattern = liouv != 0
    reach = support.copy()
    while True:
        grown = reach | pattern[:, reach].any(axis=1)
        if (grown == reach).all():
            return reach
        reach = grown


def evolve_full(params: ModelParams, rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """rho(t) from rho(0) = rho0 at each grid time t = i step, shape (n, 16, 16).

    The Liouvillian does not depend on time, so one grid step is one fixed
    map: rho(t + dt) = Phi(dt) rho(t).  Only the components reachable from
    the support of vec rho0 through the Liouvillian's sparsity pattern can
    leave zero (33 for a Bell state with cold auxiliary atoms, 68 with warm
    ones); on those, DOP853 integrates Y' = L Y from Y(0) = I over one
    step, at the module tolerances, and the resulting map is applied at
    every step.  Every other component stays exactly 0.  The right-hand
    side is the CSR form of that block, which keeps it off threaded BLAS.
    """
    liouv = build_full_liouvillian(params)
    z0 = np.asarray(rho0, dtype=complex).reshape(256)
    reach = _reachable(liouv, z0 != 0)
    block = scipy.sparse.csr_array(liouv[np.ix_(reach, reach)])
    m = block.shape[0]
    sol = solve_ivp(
        lambda t, y: (block @ y.reshape(m, m)).reshape(m * m),
        (0.0, grid.step),
        np.eye(m, dtype=complex).reshape(m * m),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
    )
    # the solver refers to itself through its right-hand-side closure, so its
    # (16, m*m) stage array (1.2 MB at m = 68) would stay resident until the
    # next full collection; a young-generation collection (~20 us) frees it
    gc.collect(1)
    if not sol.success:
        raise RuntimeError(f"full-space integration of one grid step failed: {sol.message}")
    # rows z_i = (vec rho(t_i))[reach], so z_{i+1} = z_i Phi^T
    step_map = sol.y[:, -1].reshape(m, m).T.copy()
    z = np.empty((grid.num_points, m), dtype=complex)
    z[0] = z0[reach]
    for i in range(grid.num_points - 1):
        np.matmul(z[i], step_map, out=z[i + 1])
    out = np.zeros((grid.num_points, 256), dtype=complex)
    out[:, reach] = z
    return out.reshape(grid.num_points, 16, 16)


def partial_trace_34(rho: np.ndarray) -> np.ndarray:
    """Trace out atoms 3 and 4; accepts a single 16x16 matrix or a batch."""
    rho = np.asarray(rho)
    batch = rho.shape[:-2]
    r = rho.reshape(batch + (4, 4, 4, 4))
    return np.einsum("...ijkj->...ik", r)


def pair_liouvillian(params: ModelParams, k: int) -> np.ndarray:
    """Superoperator for one qubit + auxiliary-atom pair (16x16)."""
    if k not in (1, 2):
        raise ValueError("subsystem index must be 1 or 2")
    h = params.qubit_frequency(k) * _embed(_NUM, 1, 2)
    h += params.auxiliary_frequency(k) * _embed(_NUM, 2, 2)
    h += params.coupling(k) * (
        _embed(_SP, 1, 2) @ _embed(_SM, 2, 2) + _embed(_SM, 1, 2) @ _embed(_SP, 2, 2)
    )
    liouv = _commutator_superop(h)
    liouv += _thermal_dissipator(_embed(_SM, 2, 2), params.gamma, params.nbar)
    return liouv


def _apply_pair_map(propagator: np.ndarray, op: np.ndarray, nbar: float) -> np.ndarray:
    """Evolve op (x) thermal under the pair propagator, trace out the partner."""
    pair0 = np.kron(op, thermal_state(nbar)).reshape(16)
    pair_t = (propagator @ pair0).reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", pair_t)


def choi_of_subsystem_map(params: ModelParams, k: int, t: float) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) Phi(E_ij) of the reduced map at time t.

    Entry (2i + a, 2j + b) is Phi(E_ij)[a, b], which the transfer matrix
    holds at (2a + b, 2i + j), so the Choi matrix is its reshuffle.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    transfer = subsystem_transfer_matrix(params, k, t)
    return transfer.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def subsystem_transfer_matrix(params: ModelParams, k: int, t: float) -> np.ndarray:
    """4x4 matrix T with vec(Phi(X)) = T vec(X) for the reduced map at time t."""
    prop = scipy.linalg.expm(pair_liouvillian(params, k) * t)
    cols = []
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            cols.append(_apply_pair_map(prop, eij, params.nbar).reshape(4))
    return np.stack(cols, axis=1)


def apply_product_map(t1: np.ndarray, t2: np.ndarray, rho12: np.ndarray) -> np.ndarray:
    """Apply the factorized map Phi1 (x) Phi2 to a two-qubit matrix."""
    r = np.asarray(rho12).reshape(2, 2, 2, 2)  # (q1 row, q2 row, q1 col, q2 col)
    m1 = np.asarray(t1).reshape(2, 2, 2, 2)  # (row', col', row, col)
    m2 = np.asarray(t2).reshape(2, 2, 2, 2)
    out = np.einsum("abij,cdkl,ikjl->acbd", m1, m2, r)
    return out.reshape(4, 4)
