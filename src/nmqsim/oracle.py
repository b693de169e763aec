"""Brute-force ground truth in the full 16-dimensional Hilbert space.

Everything here deliberately avoids the coefficient-space machinery: the
four-atom master equation is built as a dense 256x256 superoperator, and
the state is carried only on the components of vec rho that its sparsity
pattern can reach from the initial support.  The Liouvillian does not
depend on time, so one grid step is one fixed linear map, the numerical
matrix exponential of that block times the step (scaling and squaring,
Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970-989), and
its powers give the state at every grid time.  The primary path evaluates
closed forms in the entries of the 9x9 coefficient-space generator; this
one uses neither that generator nor those formulas, but builds the
dynamics from the Hamiltonian and the dissipator in Hilbert space and
exponentiates it numerically, so a mistake in the generator, the response
formulas or the X-state read-out shows up as a disagreement.  Agreement
between the two is the strongest correctness statement the package makes.

Also provides the Choi-matrix test of complete positivity for the reduced
single-qubit maps.  For that purpose the dynamics factorizes into two
independent qubit + auxiliary-atom pairs, each living in a 4-dimensional
Hilbert space.

The exponential is scipy's ``scipy.linalg.expm``, which the primary path
never calls.  It is imported inside the two functions that take it,
:func:`evolve_full` and :func:`subsystem_transfer_matrix`, and
:func:`~nmqsim.propagator.step_powers` imports scipy's BLAS for the march,
so importing this module, or the package, loads numpy and no scipy module.
The march multiplies with scipy's BLAS because ``expm`` has already woken
the OpenBLAS that scipy bundles, and numpy's separate copy would wake a
second helper thread on the same cores.
"""

import numpy as np

from .model import ModelParams, thermal_state
from .propagator import TimeGrid, step_powers

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

# excited-first single-qubit operators
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # raising
_SM = _SP.T.copy()  # lowering
_NUM = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # |1><1|


def _embed(op: np.ndarray, site: int, nsites: int) -> np.ndarray:
    """op acting on one tensor factor, identity elsewhere (factor order 1..nsites)."""
    return np.kron(np.kron(np.eye(2 ** (site - 1)), op), np.eye(2 ** (nsites - site)))


def _dissipator(jump: np.ndarray) -> np.ndarray:
    """D[J] rho = 2 J rho J+ - J+J rho - rho J+J as a row-major superoperator."""
    eye = np.eye(jump.shape[0], dtype=complex)
    decay = jump.conj().T @ jump
    return 2.0 * np.kron(jump, jump.conj()) - np.kron(decay, eye) - np.kron(eye, decay.T)


def _thermal_dissipator(lower: np.ndarray, gamma: float, nbar: float) -> np.ndarray:
    """gamma(nbar+1) D[L] + gamma nbar D[L+] for the lowering operator L."""
    return gamma * (nbar + 1.0) * _dissipator(lower) + gamma * nbar * _dissipator(lower.conj().T)


def _liouvillian(params: ModelParams, pairs, nsites: int) -> np.ndarray:
    """Dense superoperator on nsites atoms for each (k, qubit site, auxiliary site) in pairs.

    Qubit k and its auxiliary atom exchange an excitation at rate alpha_k,
    and each auxiliary atom is damped by its thermal reservoir.
    """
    eye = np.eye(2**nsites, dtype=complex)
    h = np.zeros_like(eye)
    for k, qubit, aux in pairs:
        omega, omega_aux, alpha = params.pair(k)
        h += omega * _embed(_NUM, qubit, nsites)
        h += omega_aux * _embed(_NUM, aux, nsites)
        hop = _embed(_SP, qubit, nsites) @ _embed(_SM, aux, nsites)
        h += alpha * (hop + hop.T)
    # vec(h rho - rho h) = (h (x) 1 - 1 (x) h^T) vec rho, row-major vec
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + sum(
        _thermal_dissipator(_embed(_SM, aux, nsites), params.gamma, params.nbar)
        for _, _, aux in pairs
    )


def build_full_liouvillian(params: ModelParams) -> np.ndarray:
    """Dense superoperator of the four-atom master equation (256x256)."""
    return _liouvillian(params, [(1, 1, 3), (2, 2, 4)], 4)


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
    ones); on those, Phi(dt) is expm of the Liouvillian block times dt, and
    rho at grid time i is Phi(dt)^i rho0.  Every other component stays
    exactly 0.
    """
    import scipy.linalg

    liouv = build_full_liouvillian(params)
    z0 = np.asarray(rho0, dtype=complex).reshape(256)
    reach = _reachable(liouv, z0 != 0)
    # rows z_i = (vec rho(t_i))[reach], so z_{i+1} = z_i Phi^T
    step_map = scipy.linalg.expm(liouv[np.ix_(reach, reach)] * grid.step).T
    out = np.zeros((grid.num_points, 256), dtype=complex)
    out[:, reach] = step_powers(z0[reach], step_map, grid.num_points)
    return out.reshape(grid.num_points, 16, 16)


def partial_trace_34(rho: np.ndarray) -> np.ndarray:
    """Trace out atoms 3 and 4; accepts a single 16x16 matrix or a batch."""
    rho = np.asarray(rho)
    batch = rho.shape[:-2]
    r = rho.reshape(batch + (4, 4, 4, 4))
    return np.einsum("...ijkj->...ik", r)


def pair_liouvillian(params: ModelParams, k: int) -> np.ndarray:
    """Superoperator for one qubit + auxiliary-atom pair (16x16)."""
    return _liouvillian(params, [(k, 1, 2)], 2)


def choi_of_subsystem_map(params: ModelParams, k: int, t: float | np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) Phi(E_ij) of the reduced map at time t.

    Entry (2i + a, 2j + b) is Phi(E_ij)[a, b], which the transfer matrix
    holds at (2a + b, 2i + j), so the Choi matrix is its reshuffle.  Like
    the transfer matrix, t may be an array of times of shape S, giving
    shape S + (4, 4).
    """
    transfer = subsystem_transfer_matrix(params, k, t)
    stack = transfer.shape[:-2]
    units = transfer.reshape(stack + (2, 2, 2, 2))
    return np.einsum("...abij->...iajb", units).reshape(stack + (4, 4))


def subsystem_transfer_matrix(params: ModelParams, k: int, t: float | np.ndarray) -> np.ndarray:
    """4x4 matrix T with vec(Phi(X)) = T vec(X) for the reduced map at time t >= 0.

    t may be a time or an array of times of shape S; the result then has
    shape S + (4, 4).  The pair Liouvillian is built once and exponentiated
    at every time in one stacked call.  With the partner atom thermal,
    T[(q q'), (p p')] = sum_{a,b,b'} prop[(q a, q' a), (p b, p' b')] th[b, b'].
    """
    import scipy.linalg

    times = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    prop = scipy.linalg.expm(pair_liouvillian(params, k) * times[..., None, None])
    # axes (q a q' a' p b p' b'): output row, output column, input row, input column
    prop = prop.reshape(times.shape + (2,) * 8)
    transfer = np.einsum("...qaxapbyc,bc->...qxpy", prop, thermal_state(params.nbar))
    return transfer.reshape(times.shape + (4, 4))


def apply_product_map(t1: np.ndarray, t2: np.ndarray, rho12: np.ndarray) -> np.ndarray:
    """Apply the factorized map Phi1 (x) Phi2 to a two-qubit matrix."""
    r = np.asarray(rho12).reshape(2, 2, 2, 2)  # (q1 row, q2 row, q1 col, q2 col)
    m1 = np.asarray(t1).reshape(2, 2, 2, 2)  # (row', col', row, col)
    m2 = np.asarray(t2).reshape(2, 2, 2, 2)
    out = np.einsum("abij,cdkl,ikjl->acbd", m1, m2, r)
    return out.reshape(4, 4)
