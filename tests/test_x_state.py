"""The reduced two-qubit X state and its matrix form."""

import numpy as np
import scipy.linalg

from nmqsim.config import preset_params
from nmqsim.entanglement import state_certificate
from nmqsim.model import build_generator
from nmqsim.propagator import TimeGrid, evolve_x_state, x_matrix, x_state_from_responses

BELL = 0.5 * np.array([
    [1, 0, 0, 1],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [1, 0, 0, 1],
], dtype=complex)

# reduced state of the resonant strongly-coupled scenario at t = 1,
# from the 16-dimensional master equation integrated at rtol 1e-10
FIG2_RHO_T1 = {
    "a": 0.05303085701212507,
    "b": 0.1098047303330943,
    "d": 0.7273596823216865,
    "f": -0.09583540278182248 + 0.1316472714469898j,
}


def _state(name, times):
    """X-state components of a preset at the given times."""
    params = preset_params(name)
    return params, evolve_x_state(params, times)


def test_single_atom_block_examples():
    # with s(t) = u(t) = exp(-t) each qubit starts excited (population 1) or
    # in ground (population 0) with coherence 1, and ends in the thermal
    # population nbar / (2 nbar + 1) with no coherence, cold and warm alike
    decay = np.exp(-TimeGrid(60.0, 7).points)
    for nbar in (0.0, 0.2):
        a, b, c, d, f = x_state_from_responses(decay, decay, decay, decay, nbar)
        start = np.array([a[0], b[0], c[0], d[0], f[0]])
        assert np.abs(start - [0.5, 0.0, 0.0, 0.5, 0.5]).max() < 1e-15
        p = nbar / (2.0 * nbar + 1.0)
        end = np.array([a[-1], b[-1], c[-1], d[-1], f[-1]])
        thermal = [p * p, p * (1.0 - p), p * (1.0 - p), (1.0 - p) ** 2, 0.0]
        assert np.abs(end - thermal).max() < 1e-15


def test_bell_state_at_time_zero():
    # at t = 0 both responses are 1, so every qubit reads out its initial
    # population exactly, whatever the temperature
    for name in ("fig2", "fig6"):
        _, x = _state(name, TimeGrid(1.0, 11).points)
        assert np.abs(x_matrix(*x)[0] - BELL).max() < 1e-12


def test_frozen_fig2_reduced_state():
    _, x = _state("fig2", TimeGrid(1.0, 2).points)
    rho = x_matrix(*x)[1]
    assert abs(rho[0, 0] - FIG2_RHO_T1["a"]) < 1e-8
    assert abs(rho[1, 1] - FIG2_RHO_T1["b"]) < 1e-8
    assert abs(rho[2, 2] - FIG2_RHO_T1["b"]) < 1e-8
    assert abs(rho[3, 3] - FIG2_RHO_T1["d"]) < 1e-8
    assert abs(rho[0, 3] - FIG2_RHO_T1["f"]) < 1e-8
    assert abs(rho[3, 0] - np.conj(FIG2_RHO_T1["f"])) < 1e-8


def test_cold_reservoir_longtime_ground_state():
    params = preset_params("fig2")
    t_end = 200.0 / params.gamma_eff
    _, x = _state("fig2", TimeGrid(t_end, 5).points)
    rho = x_matrix(*x)[4]
    assert np.abs(rho - np.diag([0.0, 0.0, 0.0, 1.0])).max() < 1e-6


def test_series_matches_single_assembly():
    times = TimeGrid(4.0, 41).points
    _, series = _state("fig7", times)
    rhos = x_matrix(*series)
    assert rhos.shape == (41, 4, 4)
    for idx in (0, 17, 40):
        _, single = _state("fig7", [times[idx]])
        assert np.abs(rhos[idx] - x_matrix(*single)[0]).max() < 1e-14


def test_coherence_factorizes():
    # the |11><00| entry is half the product of the two raising coefficients
    times = TimeGrid(6.0, 301).points
    params, (_, _, _, _, f) = _state("fig8", times)
    raising = [
        np.array([scipy.linalg.expm(build_generator(params, k)[5:7, 5:7] * t)[0, 0]
                  for t in times])
        for k in (1, 2)
    ]
    assert np.abs(f - 0.5 * raising[0] * raising[1]).max() < 1e-12


def test_unsorted_and_repeated_times_match_the_sorted_call():
    # the responses are elementwise in t, so a sample does not see the others
    times = np.array([2.5, 0.0, 7.25, 2.5, 1e-3, 0.0, 9.0, 0.3])
    order = np.argsort(times, kind="stable")
    _, unsorted = _state("fig6", times)
    _, ordered = _state("fig6", times[order])
    for x, y in zip(unsorted, ordered):
        assert np.array_equal(x[order], y)


def test_x_matrix_layout():
    assert np.array_equal(x_matrix(0.5, 0.0, 0.0, 0.5, 0.5), BELL)
    assert np.array_equal(x_matrix(0.25, 0.25, 0.25, 0.25, 0.0), np.eye(4) / 4.0)
    f = np.array([0.1 + 0.2j, -0.3j])
    rhos = x_matrix(np.array([0.4, 0.5]), 0.1, 0.1, np.array([0.4, 0.3]), f)
    assert rhos.shape == (2, 4, 4)
    assert np.array_equal(rhos[:, 0, 3], f)
    assert np.array_equal(rhos, np.conj(np.swapaxes(rhos, 1, 2)))


def test_x_matrix_of_series():
    _, (a, b, c, d, f) = _state("fig3", TimeGrid(10.0, 201).points)
    rhos = x_matrix(a, b, c, d, f)
    assert np.abs(a + b + c + d - 1.0).max() < 1e-9
    assert np.array_equal(rhos[:, 0, 0].real, a)
    assert np.array_equal(rhos[:, 0, 3], f)


def test_state_certificate_of_fig6():
    _, x = _state("fig6", TimeGrid(10.0, 501).points)
    trace_dev, herm_dev, min_eig, _ = state_certificate(x_matrix(*x))
    assert trace_dev < 1e-9
    assert herm_dev < 1e-12
    assert min_eig > -1e-9
