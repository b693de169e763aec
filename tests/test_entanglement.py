"""Concurrence routes, EoF, and death/revival event extraction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmqsim.entanglement import (
    EntanglementEvent,
    EntanglementSeries,
    EventKind,
    _scan,
    concurrence_general_series,
    entanglement_of_formation,
    extract_events,
    markovian_rate,
    precursor_from_components,
    spin_flip,
    state_certificate,
)
from nmqsim.model import ModelParams
from nmqsim.pipeline import simulate
from nmqsim.presets import default_grid, preset_params
from nmqsim.propagator import TimeGrid, x_matrix

BELL = 0.5 * np.array([
    [1, 0, 0, 1],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [1, 0, 0, 1],
], dtype=complex)

# binary entropy at 0.9, evaluated with 50-digit arithmetic
H_09 = 0.46899559358928122125


def analytic_concurrence(a, b, c, d, f):
    """Analytic X-state concurrence: the positive part of the precursor."""
    return max(0.0, float(precursor_from_components(b, c, f)))


def test_bell_state_concurrence():
    assert concurrence_general_series(BELL[None])[0] == pytest.approx(1.0, abs=1e-12)
    assert analytic_concurrence(0.5, 0.0, 0.0, 0.5, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_product_state_concurrence():
    rho = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    assert concurrence_general_series(rho[None])[0] == pytest.approx(0.0, abs=1e-12)


def test_x_state_examples():
    x = (0.3, 0.2, 0.2, 0.3, 0.25)
    assert analytic_concurrence(*x) == pytest.approx(0.1, abs=1e-15)
    assert concurrence_general_series(x_matrix(*x)[None])[0] == pytest.approx(0.1, abs=1e-10)

    x = (0.46, 0.04, 0.04, 0.46, 0.3)
    assert analytic_concurrence(*x) == pytest.approx(0.52, abs=1e-15)
    assert concurrence_general_series(x_matrix(*x)[None])[0] == pytest.approx(0.52, abs=1e-10)


def test_precursor_examples():
    assert precursor_from_components(0.18, 0.18, 0.1) == pytest.approx(-0.16, abs=1e-15)
    assert analytic_concurrence(0.32, 0.18, 0.18, 0.32, 0.1) == 0.0
    vals = precursor_from_components(
        np.array([0.18, 0.0]), np.array([0.18, 0.0]), np.array([0.1, 0.5])
    )
    assert vals == pytest.approx([-0.16, 1.0], abs=1e-15)
    # tiny negative populations from roundoff are treated as zero
    assert precursor_from_components(
        np.array([-1e-18]), np.array([0.09]), np.array([0.0])
    )[0] == 0.0


@settings(max_examples=80, deadline=None)
@given(
    pops=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    ratio=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * np.pi),
)
def test_analytic_route_matches_general_route(pops, ratio, phase):
    a, b, c, d = np.array(pops) / np.sum(pops)
    f = ratio * np.sqrt(a * d) * np.exp(1j * phase)
    x = (a, b, c, d, f)
    general = concurrence_general_series(x_matrix(*x)[None])[0]
    assert abs(analytic_concurrence(*x) - general) < 1e-10


def test_spin_flip_involution():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    assert np.abs(spin_flip(spin_flip(rho)) - rho).max() < 1e-14


def test_spin_flip_is_the_sigma_yy_sandwich():
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)  # the same matrix in the (|11>,|10>,|01>,|00>) order
    rng = np.random.default_rng(5)
    rhos = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    assert np.array_equal(spin_flip(rhos[0]), yy @ np.conj(rhos[0]) @ yy)
    assert np.array_equal(spin_flip(rhos), yy @ np.conj(rhos) @ yy)


def test_local_unitary_invariance():
    rng = np.random.default_rng(11)
    rho = x_matrix(0.3, 0.15, 0.25, 0.3, 0.2 * np.exp(0.7j))
    base = concurrence_general_series(rho[None])[0]
    for _ in range(5):
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u1, u2)
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence_general_series(rotated[None])[0] - base) < 1e-10


def test_series_route_is_batched_scalar_route():
    rng = np.random.default_rng(3)
    rhos = []
    for _ in range(6):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rhos.append(rho / np.trace(rho).real)
    rhos = np.array(rhos)
    series = concurrence_general_series(rhos)
    for i in range(len(rhos)):
        assert abs(series[i] - concurrence_general_series(rhos[i : i + 1])[0]) < 1e-13


def random_states(rng, count):
    """Full-rank two-qubit states m m^dagger / tr, m with complex Gaussian entries."""
    m = rng.normal(size=(count, 4, 4)) + 1j * rng.normal(size=(count, 4, 4))
    rho = m @ np.conj(np.swapaxes(m, -2, -1))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def test_stacked_batch_axes_match_flattened_call():
    rhos = random_states(np.random.default_rng(17), 6).reshape(2, 3, 4, 4)
    stacked = concurrence_general_series(rhos)
    assert stacked.shape == (2, 3)
    flat = concurrence_general_series(rhos.reshape(6, 4, 4))
    assert np.abs(stacked - flat.reshape(2, 3)).max() < 1e-14


def test_werner_states():
    # p |Phi+><Phi+| + (1 - p) I/4 has C = max(0, (3p - 1)/2); a local
    # unitary keeps C and removes the X pattern the analytic route needs
    rng = np.random.default_rng(29)
    u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u = np.kron(u1, u2)
    p = np.linspace(0.0, 1.0, 41)
    werner = p[:, None, None] * BELL + (1.0 - p)[:, None, None] * np.eye(4) / 4.0
    rhos = u @ werner @ u.conj().T
    assert np.abs(rhos[-1][[0, 0, 1, 2], [1, 2, 3, 3]]).min() > 1e-3
    expected = np.maximum(0.0, (3.0 * p - 1.0) / 2.0)
    assert np.abs(concurrence_general_series(rhos) - expected).max() < 1e-12


def three_decomposition_route(rhos):
    """Reference: eigvalsh for positivity, then one eigh per square root."""
    def psd_sqrt(mats):
        w, v = np.linalg.eigh(mats)
        return np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(np.clip(w, 0.0, None)), np.conj(v))

    assert np.linalg.eigvalsh(rhos).min() > -1e-6
    lam = np.linalg.svd(psd_sqrt(spin_flip(rhos)) @ psd_sqrt(rhos), compute_uv=False)
    return np.clip(lam[:, 0] - lam[:, 1:].sum(axis=1), 0.0, 1.0)


def test_random_states_match_three_decomposition_route():
    rhos = random_states(np.random.default_rng(23), 500)
    rhos = 0.5 * (rhos + np.conj(np.swapaxes(rhos, -2, -1)))
    reference = three_decomposition_route(rhos)
    assert np.abs(concurrence_general_series(rhos) - reference).max() < 1e-13


def test_unphysical_input_rejected():
    rho = np.diag([0.7, 0.4, 0.0, -0.1]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        concurrence_general_series(rho[None])[0]
    with pytest.raises(ValueError):
        concurrence_general_series(np.eye(4, dtype=complex)[None])  # trace 4
    skew = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    skew[0, 3] = 0.1  # without its conjugate corner
    with pytest.raises(ValueError, match="input not Hermitian"):
        concurrence_general_series(skew[None])
    with pytest.raises(ValueError, match=r"4x4 density matrices, got shape \(3, 3\)"):
        concurrence_general_series(np.eye(3) / 3)
    # refused before any arithmetic, by the certificate too
    for check in (concurrence_general_series, state_certificate):
        with pytest.raises(ValueError, match="input holds no matrices"):
            check(np.zeros((0, 4, 4), dtype=complex))
        for bad in (np.nan, np.inf):
            rho = BELL.copy()
            rho[3, 3] = bad
            with pytest.raises(ValueError, match="input is not finite"):
                check(rho[None])


def test_single_matrix_gives_one_value():
    value = concurrence_general_series(BELL)
    assert value.shape == (1,)
    assert value[0] == pytest.approx(1.0, abs=1e-12)


def test_certificate_reports_what_the_series_refuses():
    assert state_certificate(BELL)[:3] == (0.0, 0.0, pytest.approx(0.0, abs=1e-15))
    assert state_certificate(BELL)[3].shape == (1,)
    trace_dev, herm_dev, min_eig, c = state_certificate(np.diag([0.7, 0.4, 0.0, -0.1]))
    assert (trace_dev, herm_dev, min_eig) == (pytest.approx(0.0, abs=1e-15), 0.0, -0.1)
    assert c.shape == (1,)
    skew = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    skew[0, 3] = 0.1
    assert state_certificate(skew)[1] == 0.1
    assert state_certificate(np.eye(4))[0] == 3.0


def test_eof_endpoints_and_frozen_value():
    assert entanglement_of_formation(0.0) == 0.0
    # +0.0, so a dead sample's eof prints as 0 and not -0
    assert not np.signbit(entanglement_of_formation(0.0))
    assert not np.signbit(entanglement_of_formation(np.zeros(3))).any()
    assert entanglement_of_formation(1.0) == pytest.approx(1.0, abs=1e-15)
    # C = 0.6 puts the binary-entropy argument at 0.9
    assert entanglement_of_formation(0.6) == pytest.approx(H_09, abs=1e-14)


def test_eof_monotone():
    c = np.linspace(0.0, 1.0, 1000)
    e = entanglement_of_formation(c)
    assert np.all(np.diff(e) > 0)
    assert np.all((e >= 0) & (e <= 1))


def test_eof_domain_checked():
    with pytest.raises(ValueError):
        entanglement_of_formation(1.1)
    with pytest.raises(ValueError):
        entanglement_of_formation(-0.2)
    for bad in (np.nan, np.inf, [0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            entanglement_of_formation(bad)
    # roundoff-level excursions are tolerated
    assert entanglement_of_formation(1.0 + 5e-13) == pytest.approx(1.0, abs=1e-6)


def params_for(alpha, gamma, nbar):
    return ModelParams.from_detunings(
        omega1=10.0, delta1=0.0, delta2=0.0,
        alpha1=alpha, alpha2=alpha, gamma=gamma, nbar=nbar,
    )


def test_markovian_rate_values():
    assert markovian_rate(params_for(3.0, 27.0, 0.0), 1) == 1.0 / 3.0
    warm = markovian_rate(params_for(3.0, 27.0, 0.2), 1)
    assert abs(warm - 0.1701) < 1e-4
    assert markovian_rate(params_for(0.0, 1.0, 0.0), 1) == 0.0
    with pytest.raises(ValueError):
        markovian_rate(params_for(1.0, 0.0, 0.0), 1)


def make_series(t_end, s, fn=None):
    s = np.asarray(s, dtype=float)
    return EntanglementSeries(grid=TimeGrid(t_end, len(s)), precursor=s, precursor_fn=fn)


def test_series_derives_concurrence_and_eof():
    p = np.array([-0.4, -1e-9, 0.0, 0.3, 0.999, 1.0, 1.0 + 1e-12, 1.7])
    series = EntanglementSeries(grid=TimeGrid(1.0, len(p)), precursor=p)
    assert np.array_equal(series.concurrence, np.clip(p, 0.0, 1.0))
    assert np.array_equal(series.eof, entanglement_of_formation(np.clip(p, 0.0, 1.0)))
    with pytest.raises(ValueError, match="precursor length does not match the grid"):
        EntanglementSeries(grid=TimeGrid(1.0, len(p) + 1), precursor=p)
    # a 2-d precursor whose first axis matches the grid is not a series
    with pytest.raises(ValueError, match="precursor must be 1-d"):
        EntanglementSeries(grid=TimeGrid(1.0, len(p)), precursor=np.stack([p, p], axis=1))
    with pytest.raises(TypeError):
        EntanglementSeries(grid=TimeGrid(1.0, len(p)), precursor=p, concurrence=p)


def test_series_rejects_non_finite_samples():
    # an all-NaN series would otherwise report no death at all
    with pytest.raises(ValueError, match="precursor samples must be finite"):
        make_series(1.0, np.full(11, np.nan))
    with pytest.raises(ValueError, match="precursor samples must be finite"):
        make_series(1.0, [0.5, 0.2, np.inf, -0.1, -0.2])


def test_no_events_when_positive():
    s = 0.5 + 0.1 * np.sin(np.linspace(0.0, 6.0, 61))
    assert extract_events(make_series(6.0, s)) == []


def test_shallow_dip_is_not_death():
    # drops under the revival level but never under the death threshold
    t = np.linspace(0.0, 1.0, 101)
    s = 5e-5 + 0.4 * (t - 0.5) ** 2
    assert extract_events(make_series(1.0, s)) == []


def test_single_death_with_interpolated_time():
    t = np.linspace(0.0, 1.0, 11)
    s = 0.5 - t
    events = extract_events(make_series(1.0, s))
    assert len(events) == 1
    assert events[0].kind is EventKind.FINAL_DEATH
    assert events[0].precise
    assert events[0].time == pytest.approx(0.5 - 1e-6, abs=1e-12)


def test_death_then_revival():
    t = np.linspace(0.0, 1.0, 101)
    s = 0.4 * np.abs(t - 0.5) - 0.01
    events = extract_events(make_series(1.0, s))
    assert [e.kind for e in events] == [EventKind.DEATH, EventKind.REVIVAL]
    assert all(e.precise for e in events)
    assert events[0].time == pytest.approx(0.5 - (0.01 + 1e-6) / 0.4, abs=1e-12)
    assert events[1].time == pytest.approx(0.5 + (0.01 + 1e-3) / 0.4, abs=1e-12)


def test_relapse_within_hysteresis_band_is_one_death():
    # recovery that never clears the revival level does not count
    t = np.linspace(0.0, 1.0, 201)
    s = np.full_like(t, 0.3)
    s[t > 0.3] = -0.01
    mid = (t > 0.5) & (t < 0.7)
    s[mid] = 5e-4
    s[t >= 0.7] = -0.02
    events = extract_events(make_series(1.0, s))
    assert [e.kind for e in events] == [EventKind.FINAL_DEATH]


def test_final_death_after_revivals():
    t = np.linspace(0.0, 1.0, 401)
    s = np.full_like(t, 0.3)
    s[(t > 0.15) & (t < 0.3)] = -0.05
    s[(t > 0.45) & (t < 0.6)] = -0.05
    s[t > 0.8] = -0.05
    events = extract_events(make_series(1.0, s))
    kinds = [e.kind for e in events]
    assert kinds == [
        EventKind.DEATH, EventKind.REVIVAL,
        EventKind.DEATH, EventKind.REVIVAL,
        EventKind.FINAL_DEATH,
    ]
    times = [e.time for e in events]
    assert times == sorted(times)


def test_starting_dead_emits_no_initial_death():
    t = np.linspace(0.0, 1.0, 101)
    s = 0.2 * t - 0.05
    events = extract_events(make_series(1.0, s))
    assert [e.kind for e in events] == [EventKind.REVIVAL]


def test_single_sample_dip_flags_without_warning():
    # the flags are the library's record; the command line does the warning
    s = np.array([0.5, 0.4, 1e-9, 0.4, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events = extract_events(make_series(4.0, s))
    assert [e.kind for e in events] == [EventKind.DEATH, EventKind.REVIVAL]
    assert not events[0].precise
    assert not events[1].precise


def test_threshold_validation():
    s = np.array([0.5, 0.4, 0.3])
    with pytest.raises(ValueError):
        extract_events(make_series(1.0, s), threshold=0.0)
    with pytest.raises(ValueError):
        extract_events(make_series(1.0, s), threshold=-1e-6)
    # above 1 the revival level sqrt(threshold) would lie below the death level
    with pytest.raises(ValueError):
        extract_events(make_series(1.0, s), threshold=1.5)
    at_one = extract_events(make_series(1.0, np.array([1.0, 0.4, 0.3])), threshold=1.0)
    assert [e.kind for e in at_one] == [EventKind.FINAL_DEATH]


def scalar_scan(s, threshold):
    """The sample-by-sample hysteresis scan: (kind, i, precise) per crossing."""
    revive_level = np.sqrt(threshold)
    events = []
    dead = s[0] < threshold
    death_start = 0
    death_pos = None
    for i in range(len(s) - 1):
        if not dead and s[i + 1] < threshold:
            events.append([EventKind.DEATH, i, True])
            dead, death_start, death_pos = True, i + 1, len(events) - 1
        elif dead and s[i + 1] > revive_level:
            precise = i + 1 - death_start >= 2
            if not precise and death_pos is not None:
                events[death_pos][2] = False
            events.append([EventKind.REVIVAL, i, precise])
            dead = False
    if dead and events and events[-1][0] is EventKind.DEATH:
        events[-1][0] = EventKind.FINAL_DEATH
    return [tuple(e) for e in events]


# values on and around both levels of threshold 1e-4 (revival level 1e-2),
# so draws hold tangential touches, runs that start dead and one-sample dips
LEVEL_VALUES = [0.5, 1e-2 + 1e-9, 1e-2, 5e-3, 1e-4, 1e-4 - 1e-12, 0.0, -0.2]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.sampled_from(LEVEL_VALUES), st.floats(-0.5, 0.5)),
        min_size=2,
        max_size=40,
    )
)
def test_vectorised_scan_equals_scalar_scan(values):
    s = np.array(values)
    expected = scalar_scan(s, 1e-4)
    assert [(kind, i, precise) for kind, i, _, precise in _scan(s, 1e-4)] == expected
    # extract_events takes the same brackets: chord times lie inside them
    events = extract_events(make_series(len(s) - 1.0, s), threshold=1e-4)
    assert [(e.kind, e.precise) for e in events] == [(k, p) for k, _, p in expected]
    for event, (_, i, _) in zip(events, expected):
        assert i <= event.time <= i + 1


def test_bisection_uses_continuous_precursor():
    # convex decay: the chord crossing is ~1e-7 away from the true one,
    # so only refinement on the continuous function passes this bound
    fn = lambda u: 0.25 - u * u  # noqa: E731
    t = np.linspace(0.0, 1.0, 11)
    events = extract_events(make_series(1.0, fn(t), fn=fn))
    assert len(events) == 1
    assert events[0].kind is EventKind.FINAL_DEATH
    assert events[0].time == pytest.approx(np.sqrt(0.25 - 1e-6), abs=1e-8)


def test_refinement_finds_crossings_to_1e_10():
    # smooth oscillation with closed-form crossings of both levels; a
    # bisection stopped at a 1e-8 bracket lands up to 5e-9 away
    fn = lambda u: 0.3 * np.cos(2.0 * u) + 0.05  # noqa: E731
    t = np.linspace(0.0, 3.0, 31)
    events = extract_events(make_series(3.0, fn(t), fn=fn))
    assert [e.kind for e in events] == [EventKind.DEATH, EventKind.REVIVAL]
    death = 0.5 * np.arccos((1e-6 - 0.05) / 0.3)
    revival = np.pi - 0.5 * np.arccos((1e-3 - 0.05) / 0.3)
    assert abs(events[0].time - death) <= 1e-10
    assert abs(events[1].time - revival) <= 1e-10


def test_fig3_refinement_calls():
    # one call on both ends of every bracket, then one per step on every bracket
    series = simulate(preset_params("fig3"), default_grid()).series
    inner = series.precursor_fn
    calls = []

    def counting(u):
        calls.append(np.shape(u))
        return inner(u)

    # the series is frozen; swap in a counting evaluator
    object.__setattr__(series, "precursor_fn", counting)
    events = extract_events(series)
    assert len(events) == 9
    assert len(calls) <= 12
    assert calls[0] == (18,) and all(shape == (9,) for shape in calls[1:])


def test_bracket_end_on_the_level_is_returned_exactly():
    # the death level 1e-4 at sample 1 and the revival level 0.01 at
    # sample 4: both crossings sit exactly on the left end of their bracket.
    # A false-position step from the death bracket's right end rounds to
    # 1.4e-17 right of t[1].  Both brackets are done before the last one,
    # from sample 5 to 6, takes its first step
    threshold = 1e-4
    s = [0.5, threshold, -0.45, -0.45, float(np.sqrt(threshold)), 0.5, -0.3]
    series = make_series(0.7, s)
    t = series.grid.points
    events = extract_events(series, threshold=threshold)
    assert [(e.kind, e.time, e.precise) for e in events[:2]] == [
        (EventKind.DEATH, t[1], True), (EventKind.REVIVAL, t[4], True),
    ]
    assert events[2].kind is EventKind.FINAL_DEATH
    assert events[2].time == pytest.approx(t[5] + (0.5 - threshold) / 0.8 * (t[6] - t[5]), abs=1e-12)
    # the case hypothesis found: the first sample is dead, the second on the level
    events = extract_events(make_series(2.0, [0.0, 0.01, 0.5]), threshold=threshold)
    assert [(e.kind, e.time) for e in events] == [(EventKind.REVIVAL, 1.0)]


def test_refined_time_stays_inside_its_bracket():
    # sample 1 lies one ulp above the death level, so the first
    # false-position point rounds to 2.8e-17 left of t[1]
    s = [0.5, np.nextafter(1e-4, 1.0)] + [-0.2] * 5
    series = make_series(1.3, s)
    t = series.grid.points
    (event,) = extract_events(series, threshold=1e-4)
    assert event.kind is EventKind.FINAL_DEATH
    assert t[1] <= event.time <= t[2]


def bracketed_series(fn):
    # the samples of 0.3 cos(2t) + 0.05 die near t = 0.7 and revive near 2.4
    t = np.linspace(0.0, 3.0, 31)
    return make_series(3.0, 0.3 * np.cos(2.0 * t) + 0.05, fn=fn)


def test_refinement_rejects_a_precursor_without_a_crossing():
    with pytest.raises(ValueError, match="same sign"):
        extract_events(bracketed_series(lambda u: np.full(np.shape(u), 0.5)))


def test_refinement_rejects_a_nan_precursor():
    # finite at every sample, NaN strictly inside each bracket
    smooth = lambda u: 0.3 * np.cos(2.0 * u) + 0.05  # noqa: E731
    grid = np.linspace(0.0, 3.0, 31)
    on_grid = lambda u: np.isclose(u[:, None], grid).any(axis=1)  # noqa: E731
    with pytest.raises(ValueError, match="not finite"):
        extract_events(bracketed_series(lambda u: np.where(on_grid(u), smooth(u), np.nan)))
    # infinite at the samples, so at the ends of each bracket
    with pytest.raises(ValueError, match="not finite"):
        extract_events(bracketed_series(lambda u: np.where(on_grid(u), np.inf, smooth(u))))


def test_refinement_stops_after_100_steps():
    # a jump so lopsided that false position stays on the right end of
    # [0.2, 0.4]: halving the left value 100 times leaves the step below an ulp
    calls = []

    def jump(u):
        calls.append(u)
        return np.where(u < 0.3, 1e300, 0.0)

    series = make_series(1.0, [0.5, 0.5, -0.5, -0.5, -0.5, -0.5], fn=jump)
    with pytest.raises(RuntimeError, match="100 steps"):
        extract_events(series)
    # one call on the bracket's ends, then one per step
    assert len(calls) == 101


# event times frozen from an adaptive high-accuracy integration of the
# same dynamics with root polishing (rtol 1e-12, xtol 1e-12)
PRESET_EVENTS = {
    "fig2": [],
    "fig3": [
        ("DEATH", 0.8352782249), ("REVIVAL", 0.9690300133),
        ("DEATH", 2.4090885283), ("REVIVAL", 2.6122760538),
        ("DEATH", 3.9783942824), ("REVIVAL", 4.2945694630),
        ("DEATH", 5.5410606959), ("REVIVAL", 6.0768417446),
        ("FINAL_DEATH", 7.0939327783),
    ],
    "fig4": [("FINAL_DEATH", 4.6350425515)],
    "fig5": [],
    "fig6": [
        ("DEATH", 0.1946462602), ("REVIVAL", 0.4632443220),
        ("DEATH", 0.7996581993), ("REVIVAL", 1.1220091933),
        ("DEATH", 1.3974228217), ("REVIVAL", 1.7952114698),
        ("FINAL_DEATH", 1.9807781567),
    ],
    "fig7": [
        ("DEATH", 0.5527362627), ("REVIVAL", 1.0763426770),
        ("FINAL_DEATH", 1.7574492711),
    ],
    "fig8": [("FINAL_DEATH", 0.5093458544)],
    "fig9": [("FINAL_DEATH", 3.5289880764)],
    "fig10": [("FINAL_DEATH", 2.3335305259)],
}


@pytest.mark.parametrize("name", sorted(PRESET_EVENTS))
def test_preset_event_times(name):
    result = simulate(preset_params(name), default_grid())
    # no overflow, underflow, 0/0 or invalid operation anywhere in the refinement
    with np.errstate(all="raise"):
        events = extract_events(result.series)
    expected = PRESET_EVENTS[name]
    assert [e.kind.value for e in events] == [k for k, _ in expected]
    for event, (_, t_ref) in zip(events, expected):
        assert event.time == pytest.approx(t_ref, abs=1e-6)
        assert event.precise


def test_alternation_invariant():
    # deaths and revivals must alternate in every preset
    for name in PRESET_EVENTS:
        kinds = [k for k, _ in PRESET_EVENTS[name]]
        for first, second in zip(kinds, kinds[1:]):
            if first == "DEATH":
                assert second == "REVIVAL"
            elif first == "REVIVAL":
                assert second in ("DEATH", "FINAL_DEATH")
