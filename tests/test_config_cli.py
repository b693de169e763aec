"""Scenario parsing and the command-line entry points."""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cli_scenarios import SCENARIOS, run_scenarios
from nmqsim import config, propagator, verify
from nmqsim.cli import main
from nmqsim.config import (
    GRID_CAP,
    PRESETS,
    SWEEP_CAP,
    ConfigError,
    default_grid,
    parse_scenario,
    parse_sweep,
    preset_params,
)
from nmqsim.entanglement import EventKind, entanglement_of_formation, extract_events
from nmqsim.model import ModelParams
from nmqsim.output import format_number, scenario_hash
from nmqsim.pipeline import RunHealthError, simulate
from nmqsim.propagator import TimeGrid

REPO_ROOT = Path(__file__).resolve().parent.parent
ROWS = {row["name"]: row for row in SCENARIOS}

PRESET_TABLE = {
    # delta, alpha, gamma, nbar
    "fig2": (2.0, 2.0, 0.5, 0.0),
    "fig3": (0.0, 2.0, 0.5, 0.0),
    "fig4": (0.0, 0.5, 0.5, 0.0),
    "fig5": (0.0, 3.0, 27.0, 0.0),
    "fig6": (0.0, 5.0, 1.0 / 3.0, 0.2),
    "fig7": (2.0, 2.0, 0.5, 0.2),
    "fig8": (0.0, 2.0, 0.5, 0.2),
    "fig9": (0.0, 0.5, 1.0, 0.2),
    "fig10": (0.0, 3.0, 27.0, 0.2),
}


def _table_params(name):
    """The preset's parameters from PRESET_TABLE, built without the scenario reader."""
    delta, alpha, gamma, nbar = PRESET_TABLE[name]
    return ModelParams.from_detunings(
        omega1=10.0, delta1=delta, delta2=delta,
        alpha1=alpha, alpha2=alpha, gamma=gamma, nbar=nbar,
    )


def test_builtin_parameter_table():
    assert set(PRESETS) == set(PRESET_TABLE)
    for name, (delta, alpha, gamma, nbar) in PRESET_TABLE.items():
        p = preset_params(name)
        assert p.omega1 == 10.0 and p.omega2 == 10.0
        for k in (1, 2):
            omega, omega_aux, _ = p.pair(k)
            assert omega - omega_aux == pytest.approx(delta, abs=1e-12)
        assert p.alpha1 == alpha and p.alpha2 == alpha
        assert p.gamma == gamma and p.nbar == nbar


def test_unknown_preset_names_the_available_ones():
    with pytest.raises(KeyError, match="unknown preset 'nope'; available: fig2, fig3, ") as info:
        preset_params("nope")
    assert all(name in str(info.value) for name in PRESET_TABLE)


def test_scenario_defaults():
    sc = parse_scenario("")
    assert sc.params.omega1 == 10.0
    assert sc.params.alpha1 == 1.0
    assert sc.params.gamma == 0.5
    assert sc.params.nbar == 0.0
    assert sc.grid.t_end == 10.0 and sc.grid.num_points == 2001
    assert sc.threshold == 1e-6


def test_scenario_parsing():
    text = """
# comment line
alpha1 = 2.5
delta1 = 1.0   # trailing comment
gamma = 0.25
t_end = 4
num_points = 401
threshold = 1e-5
"""
    sc = parse_scenario(text)
    assert sc.params.alpha1 == 2.5 and sc.params.alpha2 == 2.5
    omega, omega_aux, _ = sc.params.pair(1)
    assert omega - omega_aux == pytest.approx(1.0)
    assert sc.params.omega3 == pytest.approx(9.0)
    assert sc.grid.t_end == 4.0 and sc.grid.num_points == 401
    assert sc.threshold == 1e-5
    # plots are the --svg switch of simulate, not a scenario key
    with pytest.raises(ConfigError) as err:
        parse_scenario("svg = true\n")
    assert err.value.key == "svg"


def test_scenario_with_preset_key():
    # a preset file resolves to exactly its row of the table
    for name in PRESETS:
        sc = parse_scenario(f"preset = {name}\nt_end = 5\n")
        assert sc.params == _table_params(name)
        assert sc.grid.t_end == 5.0


def test_presets_are_built_by_the_scenario_reader(monkeypatch):
    # the library and verify take a preset's parameters from the reader
    # that simulate --preset uses, not from a construction of their own
    built, real = [], config._build_params

    def recording(values):
        built.append(real(values))
        return built[-1]

    monkeypatch.setattr(config, "_build_params", recording)
    assert preset_params("fig3") == _table_params("fig3")
    assert built == [_table_params("fig3")]
    built.clear()
    results = verify.run_quick(TimeGrid(1.0, 3))
    assert len(results) == 2 * len(PRESETS) and all(r.passed for r in results)
    assert built == [_table_params(name) for name in PRESETS]


def test_scenario_errors():
    with pytest.raises(ConfigError):
        parse_scenario("alpha9 = 1\n")  # unknown key
    with pytest.raises(ConfigError):
        parse_scenario("alpha1 = 1\nalpha1 = 2\n")  # duplicate
    with pytest.raises(ConfigError):
        parse_scenario("delta1 = 1\nomega3 = 9\n")  # both detuning forms
    with pytest.raises(ConfigError):
        parse_scenario("preset = fig2\nalpha1 = 3\n")  # preset plus physics
    with pytest.raises(ConfigError):
        parse_scenario("preset = nosuch\n")
    with pytest.raises(ConfigError):
        parse_scenario("alpha1 = 1, 2\n")  # lists only make sense in sweeps
    with pytest.raises(ConfigError):
        parse_scenario("gamma = quick\n")
    with pytest.raises(ConfigError):
        parse_scenario("num_points = 0\n")
    with pytest.raises(ConfigError):
        parse_scenario("threshold = 0\n")
    err = None
    try:
        parse_scenario("alpha1 = oops\n")
    except ConfigError as exc:
        err = exc
    assert err is not None and err.key == "alpha1"


def test_sweep_parsing():
    spec = parse_sweep("alpha1 = 0.5, 2, 5\ngamma = 0.25, 0.5\nnbar = 0.2\n")
    assert list(spec.axes) == ["alpha1", "gamma"]
    assert spec.size() == 6
    points = list(spec.points())
    assert len(points) == 6
    assignment, params = points[0]
    assert assignment == {"alpha1": 0.5, "gamma": 0.25}
    assert params.alpha1 == 0.5 and params.gamma == 0.25 and params.nbar == 0.2


def test_sweep_range_syntax():
    spec = parse_sweep("alpha1 = 1:3:3\n")
    values = [a["alpha1"] for a, _ in spec.points()]
    assert values == pytest.approx([1.0, 2.0, 3.0])


def test_sweep_errors():
    with pytest.raises(ConfigError):
        parse_sweep("preset = fig2\n")
    with pytest.raises(ConfigError):
        parse_sweep("svg = true\n")
    with pytest.raises(ConfigError):
        parse_sweep("t_end = 1, 2\n")  # grid keys are not sweep axes
    # an invalid value in an outer axis fails at parse time, not when reached
    with pytest.raises(ConfigError, match="gamma must be >= 0"):
        parse_sweep("gamma = 0.5, -1\nnbar = 0:1:400\n")
    # so does a combination whose values are each valid on their own
    with pytest.raises(ConfigError, match="omega3 must be finite"):
        parse_sweep("omega1 = 1, 1e308\ndelta1 = 0, -1e308\n")
    big = "alpha1 = 0:1:50\ngamma = 0.1:1:50\nnbar = 0:1:50\n"
    with pytest.raises(ConfigError, match="cap"):
        parse_sweep(big)
    assert 50 ** 3 > SWEEP_CAP


def test_range_whose_span_overflows_names_its_key():
    # each end is finite, but hi - lo is not: linspace would warn and yield NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="alpha1") as err:
            parse_sweep("alpha1 = -1e308:1e308:3\n")
    assert err.value.key == "alpha1"


def test_readers_parse_every_value_before_counting():
    # a value list is a fault only for a scenario; the bad value is one for both
    text = "alpha1 = 1, 2\ngamma = oops\n"
    for parse in (parse_scenario, parse_sweep):
        with pytest.raises(ConfigError, match="'oops' is not a number") as err:
            parse(text)
        assert err.value.key == "gamma"


@pytest.mark.parametrize(
    "text,key",
    [
        ("gamma = -1\n", "gamma"),
        ("nbar = -2\n", "nbar"),
        ("delta1 = 1e308\nomega1 = -1e308\n", None),
    ],
)
def test_parameter_fault_names_its_key(text, key):
    # omega3 = omega1 - delta1 comes from two keys, so its overflow names none
    for parse in (parse_scenario, parse_sweep):
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert err.value.key == key


ONE_VALUE = "key 'alpha1': a single run takes one value, not {}"

# files with two faults: (file, simulate's message and key, sweep's message and key)
DOUBLE_FAULTS = {
    "list-grid": (
        "alpha1 = 1, 2\nt_end = -1\n",
        (ONE_VALUE.format(2), "alpha1"),
        ("t_end must be finite and > 0, got -1.0", "t_end"),
    ),
    "range-params": (
        "alpha1 = 1:2:3\ngamma = -1\n",
        (ONE_VALUE.format(3), "alpha1"),
        ("gamma must be >= 0, got -1.0", "gamma"),
    ),
    "list-threshold": (
        "alpha1 = 1, 2\nthreshold = 5\n",
        (ONE_VALUE.format(2), "alpha1"),
        ("key 'threshold' must lie in (0, 1]", "threshold"),
    ),
    "preset-forms": (
        "preset = fig3\ndelta1 = 0\nomega3 = 9\n",
        ("give either detunings (delta1/delta2) or absolute frequencies "
         "(omega3/omega4), not both", None),
        ("sweeps take explicit parameters, not presets", "preset"),
    ),
    "list-cap": (
        "alpha1 = 1:2:400\ngamma = 1:2:400\n",
        (ONE_VALUE.format(400), "alpha1"),
        (f"sweep has 160000 points, more than the cap {SWEEP_CAP}", None),
    ),
}


@pytest.mark.parametrize("name", DOUBLE_FAULTS)
def test_double_fault_precedence(name):
    text, scenario_fault, sweep_fault = DOUBLE_FAULTS[name]
    for parse, fault in ((parse_scenario, scenario_fault), (parse_sweep, sweep_fault)):
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert (str(err.value), err.value.key) == fault


def test_refused_list_builds_no_point(monkeypatch):
    # simulate refuses the 160000-point file's lists, and sweep its size,
    # before either builds any point's parameters
    def never(_values):
        raise AssertionError("a point was built")

    monkeypatch.setattr("nmqsim.config._build_params", never)
    for parse in (parse_scenario, parse_sweep):
        with pytest.raises(ConfigError):
            parse(DOUBLE_FAULTS["list-cap"][0])


def test_negative_zero_resolves_and_hashes_like_zero():
    scenario = parse_scenario("delta1 = -0\nnbar = -0\n")
    spec = parse_sweep("delta1 = -0\nnbar = -0:1:3\n")
    for value in (scenario.params.nbar, spec.fixed["delta1"], spec.axes["nbar"][0]):
        assert math.copysign(1.0, value) == 1.0
    assert scenario_hash(dataclasses.asdict(scenario)) == scenario_hash(
        dataclasses.asdict(parse_scenario("delta1 = 0\nnbar = 0\n"))
    )
    assert scenario_hash(dataclasses.asdict(spec)) == scenario_hash(
        dataclasses.asdict(parse_sweep("delta1 = 0\nnbar = 0:1:3\n"))
    )


# one value per key, invalid ones included: a negative gamma, a bad number,
# and 1e308 pairs whose omega3 = omega1 - delta1 overflows
_VALUES = st.sampled_from(["0", "-0", "0.5", "2", "-2", "10", "1e308", "-1e308", "oops"])
_FORMS = (
    ("omega1", "omega2", "delta1", "delta2", "alpha1", "alpha2", "gamma", "nbar"),
    ("omega1", "omega2", "omega3", "omega4", "alpha1", "alpha2", "gamma", "nbar"),
)
# valid and invalid grid and threshold values, so that a file can carry a
# fault there and in a physical key at once
_OTHER = {
    "t_end": ["4", "10", "0", "-1", "1e-310"],
    "num_points": ["101", "2001", "0", "1", "2.5"],
    "threshold": ["1e-6", "0.01", "0", "2"],
}


@st.composite
def _one_point_files(draw):
    keys = draw(st.sampled_from(_FORMS))
    lines = [f"{key} = {draw(_VALUES)}" for key in keys if draw(st.booleans())]
    lines += [
        f"{key} = {draw(st.sampled_from(values))}"
        for key, values in _OTHER.items()
        if draw(st.booleans())
    ]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_one_point_files())
def test_scenario_is_a_one_point_sweep(text):
    try:
        scenario = parse_scenario(text)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as err:
            parse_sweep(text)
        assert (str(err.value), err.value.key) == (str(exc), exc.key)
        return
    spec = parse_sweep(text)
    assert spec.axes == {}
    [(assignment, params)] = list(spec.points())
    assert assignment == {} and params == scenario.params
    assert (spec.grid, spec.threshold) == (scenario.grid, scenario.threshold)


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_simulate_writes_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, "preset = fig3\n")
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", cfg, "--out", str(out2)]) == 0
    for fname in ("trajectory.csv", "events.csv"):
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        assert b1 == b2
        assert b"\r" not in b1

    header = (out1 / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,a,b,c,d,re_f,im_f,concurrence,precursor,eof"
    record = json.loads((out1 / "run.json").read_text())
    assert record["tool"] == "nmqsim"
    assert len(record["scenario_hash"]) == 16
    assert any("trajectory.csv" in f for f in record["outputs"])


def test_config_with_byte_order_mark_reads_like_plain(tmp_path):
    cases = {
        "simulate": ("alpha1 = 2\nnbar = 0.2\n", ["trajectory.csv", "events.csv"]),
        "sweep": ("alpha1 = 0.5, 2\nnbar = 0.2\n", ["sweep.csv"]),
    }
    for command, (text, files) in cases.items():
        plain = tmp_path / f"{command}.cfg"
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / f"{command}-bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        outs = [tmp_path / f"{command}-plain", tmp_path / f"{command}-bom"]
        for cfg, out in zip((plain, marked), outs):
            assert main([command, str(cfg), "--out", str(out)]) == 0
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"alpha1 = 2\xff\n")
    for command in ("simulate", "sweep"):
        assert main([command, str(cfg), "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: cannot read config file: ")


def test_simulate_preset_flag_and_events(tmp_path):
    out = tmp_path / "fig3"
    assert main(["simulate", "--preset", "fig3", "--out", str(out)]) == 0
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "kind,time,precise"
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds.count("DEATH") >= 1
    assert kinds.count("REVIVAL") >= 1
    assert kinds[-1] == "FINAL_DEATH"
    assert all(ln.split(",")[2] == "true" for ln in lines[1:])


def test_simulate_svg(tmp_path):
    out = tmp_path / "svg"
    cfg = write_config(tmp_path, "preset = fig2\nnum_points = 101\n")
    assert main(["simulate", cfg, "--out", str(out), "--svg"]) == 0
    svg = (out / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_simulate_usage_errors(tmp_path):
    assert main(["simulate", "--out", str(tmp_path)]) == 2  # no scenario at all
    cfg = write_config(tmp_path, "preset = fig2\n")
    assert main(["simulate", cfg, "--preset", "fig2", "--out", str(tmp_path)]) == 2
    assert main(["simulate", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 2
    bad = write_config(tmp_path, "num_points = 0\n", "bad.cfg")
    assert main(["simulate", bad, "--out", str(tmp_path)]) == 2
    unknown = write_config(tmp_path, "alpha7 = 1\n", "unknown.cfg")
    assert main(["simulate", unknown, "--out", str(tmp_path)]) == 2


def test_preset_flag_is_validated_before_it_becomes_a_line(tmp_path, capsys):
    # "preset = fig3 # x" would read as fig3 once the comment is stripped
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "fig3 # x", "--out", str(out)]) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert not out.exists()


def read_sweep(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_sweep_frozen_values(tmp_path):
    cfg = write_config(tmp_path, "alpha1 = 0.5, 2, 5\ngamma = 0.5\nnbar = 0.2\n")
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    header, rows = read_sweep(out / "sweep.csv")
    assert header == ["alpha1", "final_death", "revivals", "concurrence_integral"]
    assert [r[0] for r in rows] == ["0.5", "2", "5"]
    finals = [float(r[1]) for r in rows]
    assert finals == pytest.approx([2.5191353551, 0.5093458544, 1.3535967040], abs=1e-6)
    assert [r[2] for r in rows] == ["0", "0", "2"]
    integrals = [float(r[3]) for r in rows]
    assert integrals == pytest.approx([1.306799, 0.285797, 0.194321], abs=2e-5)


def test_sweep_none_sentinel(tmp_path):
    # critically damped cold pair never dies; its warm twin does
    cfg = write_config(tmp_path, "alpha1 = 0.5\ngamma = 1\nnbar = 0, 0.2\n")
    out = tmp_path / "sweep_none"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    _, rows = read_sweep(out / "sweep.csv")
    assert rows[0][0] == "0" and rows[0][1] == "none"
    assert rows[1][0] == "0.2"
    assert float(rows[1][1]) == pytest.approx(3.5289880764, abs=1e-6)


def test_single_point_sweep_matches_simulate(tmp_path):
    cfg = write_config(tmp_path, "preset = fig8\n")
    sim_out = tmp_path / "sim"
    assert main(["simulate", cfg, "--out", str(sim_out)]) == 0
    sweep_cfg = write_config(
        tmp_path, "alpha1 = 2\ngamma = 0.5\nnbar = 0.2\n", "sweep.cfg"
    )
    sweep_out = tmp_path / "one"
    assert main(["sweep", sweep_cfg, "--out", str(sweep_out)]) == 0
    header, rows = read_sweep(sweep_out / "sweep.csv")
    # all keys single-valued: no axis columns, one summary row
    assert header == ["final_death", "revivals", "concurrence_integral"]
    assert len(rows) == 1

    events = (sim_out / "events.csv").read_text().splitlines()[1:]
    final = next(t for k, t, _ in (ln.split(",") for ln in events) if k == "FINAL_DEATH")
    assert float(rows[0][0]) == pytest.approx(float(final), abs=1e-12)

    traj = np.loadtxt(sim_out / "trajectory.csv", delimiter=",", skiprows=1)
    integral = np.trapezoid(traj[:, 7], traj[:, 0])
    assert float(rows[0][2]) == pytest.approx(integral, abs=1e-9)


def test_sweep_cap_exit_code(tmp_path):
    cfg = write_config(tmp_path, "alpha1 = 0:1:50\ngamma = 0.1:1:50\nnbar = 0:1:50\n")
    assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2


def test_range_count_cap_exit_code(tmp_path, capsys):
    # the count is rejected before the axis is built: building this one
    # would ask for terabytes
    text = "alpha1 = 0:1:1000000000000\n"
    for parse in (parse_scenario, parse_sweep):
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert err.value.key == "alpha1"
    cfg = write_config(tmp_path, text)
    assert main(["simulate", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert main(["sweep", cfg, "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("configuration error: key 'alpha1'") for line in err)
    assert parse_sweep(f"alpha1 = 0:1:{SWEEP_CAP}\n").size() == SWEEP_CAP


def test_grid_cap_exit_code(tmp_path, monkeypatch):
    # checked by the parser only: a run at this size would allocate gigabytes
    text = "num_points = 100000000\n"
    assert 100_000_000 > GRID_CAP
    for parse in (parse_scenario, parse_sweep):
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert err.value.key == "num_points"

    def never(*_args):
        raise AssertionError("simulate ran past the grid cap")

    monkeypatch.setattr("nmqsim.cli.simulate", never)
    cfg = write_config(tmp_path, text)
    assert main(["simulate", cfg, "--out", str(tmp_path / "big")]) == 2


def test_sweep_checks_every_point_before_running(tmp_path, monkeypatch):
    def never(*_args):
        raise AssertionError("a point ran before the sweep was checked")

    monkeypatch.setattr("nmqsim.cli.simulate", never)
    cfg = write_config(tmp_path, "gamma = 0.5, -1\nnbar = 0:1:400\nnum_points = 401\n")
    out = tmp_path / "bad"
    assert main(["sweep", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_memory_error_exit_code(tmp_path, monkeypatch, capsys):
    # str(MemoryError()) is empty, so the failure line says what happened
    def exhausted(*_args):
        raise MemoryError

    monkeypatch.setattr("nmqsim.cli.simulate", exhausted)
    out = tmp_path / "oom"
    assert main(["simulate", "--preset", "fig2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: out of memory\n"
    cfg = write_config(tmp_path, "alpha1 = 2, 3\nnum_points = 101\n")
    assert main(["sweep", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: sweep point alpha1=2: out of memory\n"
    assert not out.exists()

    def unable(*_args):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr("nmqsim.cli.simulate", unable)
    assert main(["simulate", "--preset", "fig2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: Unable to allocate 8.00 GiB\n"
    assert not out.exists()


def test_unhealthy_run_exit_code(tmp_path):
    # the coupling overflows the exponentials; nothing may be written
    cfg = write_config(tmp_path, "alpha1 = 1e200\n")
    out = tmp_path / "overflow"
    with np.errstate(all="ignore"):
        assert main(["simulate", cfg, "--out", str(out)]) == 3
    assert not (out / "trajectory.csv").exists()


def test_unhealthy_run_is_quiet(tmp_path, capsys):
    # the run-health check reports the overflow; numpy must not warn first
    cfg = write_config(tmp_path, "alpha1 = 1e200\n")
    out = tmp_path / "overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert len(err.splitlines()) == 1
    assert not (out / "trajectory.csv").exists()


def test_unwritable_output_exit_code(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    assert main(["simulate", "--preset", "fig2", "--out", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot write output: ")

    cfg = write_config(tmp_path, "alpha1 = 1, 2\nnum_points = 101\n")
    assert main(["sweep", cfg, "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot write output: ")
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("t_end", ["1e-310", "5e-324"])
def test_subnormal_grid_step_exit_code(tmp_path, capsys, t_end):
    cfg = write_config(tmp_path, f"t_end = {t_end}\n")
    assert main(["simulate", cfg, "--out", str(tmp_path / "sim")]) == 2
    sweep_cfg = write_config(tmp_path, f"alpha1 = 1, 2\nt_end = {t_end}\n", "sweep.cfg")
    assert main(["sweep", sweep_cfg, "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("configuration error: ") for line in err)
    assert not (tmp_path / "sim").exists() and not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ("t_end = 1e-310\n", "t_end"),
        ("t_end = -1\n", "t_end"),
        ("num_points = 1\n", "num_points"),
        ("num_points = 1\nt_end = -1\n", "num_points"),
    ],
)
def test_grid_error_names_its_key(text, key):
    for parse in (parse_scenario, parse_sweep):
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert err.value.key == key


def test_threshold_above_one_is_config_error():
    with pytest.raises(ConfigError) as err:
        parse_scenario("threshold = 1.5\n")
    assert err.value.key == "threshold"
    assert parse_scenario("threshold = 1\n").threshold == 1.0


def test_run_record_lists_library_versions(tmp_path):
    import scipy

    out = tmp_path / "versions"
    assert main(["simulate", "--preset", "fig2", "--out", str(out)]) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["versions"] == {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def test_run_record_reads_the_scipy_version_once(tmp_path, monkeypatch):
    import importlib.metadata

    from nmqsim import output

    calls = []
    real = importlib.metadata.version

    def counting(name):
        calls.append(name)
        return real(name)

    monkeypatch.setattr(importlib.metadata, "version", counting)
    output._scipy_version.cache_clear()
    for i in range(2):
        output.write_run_record(tmp_path / f"run{i}.json", {"preset": "fig2"}, [])
    assert calls == ["scipy"]


def test_run_record_without_scipy_metadata(tmp_path, monkeypatch):
    # simulate needs no scipy, so a missing scipy distribution is recorded, not fatal
    import importlib.metadata

    from nmqsim import output

    def missing(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", missing)
    output._scipy_version.cache_clear()
    try:
        out = tmp_path / "noscipy"
        assert main(["simulate", "--preset", "fig2", "--out", str(out)]) == 0
        record = json.loads((out / "run.json").read_text())
    finally:
        output._scipy_version.cache_clear()
    assert record["versions"]["scipy"] is None
    assert (out / "trajectory.csv").exists() and (out / "events.csv").exists()


def test_verify_has_no_nz_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nz"])
    assert exc.value.code == 2
    assert "--nz" in capsys.readouterr().err


def test_value_error_exit_code(tmp_path, monkeypatch, capsys):
    def unbracketed(*_args):
        raise ValueError("f(a) and f(b) must have different signs")

    monkeypatch.setattr("nmqsim.cli.simulate", unbracketed)
    out = tmp_path / "nobracket"
    assert main(["simulate", "--preset", "fig3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: f(a) and f(b) must have different signs\n"
    assert not out.exists()


def run_hash(tmp_path, command, text, name):
    cfg = write_config(tmp_path, text, name + ".cfg")
    out = tmp_path / name
    assert main([command, cfg, "--out", str(out)]) == 0
    return json.loads((out / "run.json").read_text())["scenario_hash"], out


def test_scenario_hash_is_canonical(tmp_path):
    preset, preset_out = run_hash(tmp_path, "simulate", "preset = fig3\n", "preset")
    spelled, spelled_out = run_hash(
        tmp_path, "simulate", "delta1 = 0\nalpha1 = 2\ngamma = 0.5\nnbar = 0\n", "spelled"
    )
    assert (preset_out / "trajectory.csv").read_bytes() == (
        spelled_out / "trajectory.csv"
    ).read_bytes()
    assert preset == spelled
    assert len(preset) == 16 and int(preset, 16) >= 0
    changed, _ = run_hash(
        tmp_path, "simulate", "delta1 = 0\nalpha1 = 2.5\ngamma = 0.5\nnbar = 0\n", "changed"
    )
    assert changed != preset

    base = "num_points = 101\nalpha1 = {}\n"
    sweep, _ = run_hash(tmp_path, "sweep", base.format("0.5, 1"), "sweep")
    respelled, _ = run_hash(tmp_path, "sweep", base.format("0.50, 1e0"), "respelled")
    moved, _ = run_hash(tmp_path, "sweep", base.format("0.5, 0.75"), "moved")
    assert sweep == respelled
    assert moved != sweep


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig6"])
def test_one_point_sweep_reproduces_simulate(tmp_path, name):
    preset = PRESETS[name]
    cfg = write_config(tmp_path, (
        f"delta1 = {preset.delta!r}\nalpha1 = {preset.alpha!r}\n"
        f"gamma = {preset.gamma!r}\nnbar = {preset.nbar!r}\n"
    ))
    assert main(["simulate", cfg, "--out", str(tmp_path / "sim")]) == 0
    assert main(["sweep", cfg, "--out", str(tmp_path / "sweep")]) == 0
    header, [row] = read_sweep(tmp_path / "sweep" / "sweep.csv")
    assert header == ["final_death", "revivals", "concurrence_integral"]

    events = [
        line.split(",")
        for line in (tmp_path / "sim" / "events.csv").read_text().splitlines()[1:]
    ]
    finals = [time for kind, time, _ in events if kind == "FINAL_DEATH"]
    assert row[0] == (finals[0] if finals else "none")
    assert row[1] == str(sum(1 for kind, _, _ in events if kind == "REVIVAL"))
    grid = default_grid()
    result = simulate(preset_params(name), grid)
    assert row[2] == format_number(np.trapezoid(result.series.concurrence, grid.points))


def test_sweep_rows_match_simulate(tmp_path):
    cfg = write_config(
        tmp_path, "alpha1 = 0.5, 5\ngamma = 0.5, 1\nnbar = 0, 0.2\nnum_points = 401\n"
    )
    out = tmp_path / "rows"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    header, rows = read_sweep(out / "sweep.csv")
    spec = parse_sweep(Path(cfg).read_text())
    assert header[:3] == ["alpha1", "gamma", "nbar"]
    expected = []
    for assignment, params in spec.points():
        result = simulate(params, spec.grid)
        events = extract_events(result.series, threshold=spec.threshold)
        finals = [e.time for e in events if e.kind is EventKind.FINAL_DEATH]
        revivals = sum(1 for e in events if e.kind is EventKind.REVIVAL)
        integral = np.trapezoid(result.series.concurrence, spec.grid.points)
        expected.append(
            [format_number(v) for v in assignment.values()]
            + [format_number(finals[0]) if finals else "none", str(revivals)]
            + [format_number(integral)]
        )
    assert rows == expected
    # the sweep covers a surviving pair, a final death and revivals
    assert {r[3] == "none" for r in rows} == {True, False}
    assert max(int(r[4]) for r in rows) > 0


def test_sweep_names_grid_limited_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, "alpha1 = 1:3:10\nnum_points = 101\n")
    out = tmp_path / "coarse"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: 2 of 10 sweep rows ")
    assert err[0].split(": ", 2)[2].split("; ") == ["alpha1=2.77777777778", "alpha1=3"]
    _, rows = read_sweep(out / "sweep.csv")
    assert len(rows) == 10


def test_sweep_never_evaluates_the_eof(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, ROWS["sweep"]["config"])
    assert main(["sweep", cfg, "--out", str(tmp_path / "plain")]) == 0

    def refused(concurrence):
        raise RuntimeError("the entanglement of formation was evaluated")

    with monkeypatch.context() as patch:
        patch.setattr("nmqsim.entanglement.entanglement_of_formation", refused)
        patch.setattr("nmqsim.pipeline.entanglement_of_formation", refused, raising=False)
        assert main(["sweep", cfg, "--out", str(tmp_path / "patched")]) == 0
    plain, patched = (tmp_path / name / "sweep.csv" for name in ("plain", "patched"))
    assert patched.read_bytes() == plain.read_bytes()

    # a simulate run still writes the eof column, derived from the concurrence
    assert main(["simulate", "--preset", "fig8", "--out", str(tmp_path / "sim")]) == 0
    traj = np.loadtxt(tmp_path / "sim" / "trajectory.csv", delimiter=",", skiprows=1)
    assert traj[:, 9] == pytest.approx(entanglement_of_formation(traj[:, 7]), abs=1e-9)
    assert traj[:, 9].max() > 0.5


@pytest.mark.parametrize(
    "precursor, message",
    [
        (lambda u: np.full(np.shape(u), 0.5), "same sign"),
        (lambda u: np.full(np.shape(u), np.nan), "not finite"),
    ],
    ids=["no-crossing", "nan"],
)
def test_unrefinable_crossing_exits_3(tmp_path, monkeypatch, capsys, precursor, message):
    def broken(params, grid):
        result = simulate(params, grid)
        object.__setattr__(result.series, "precursor_fn", precursor)
        return result

    monkeypatch.setattr("nmqsim.cli.simulate", broken)
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "fig3", "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_quick(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_catches_corrupted_generator(monkeypatch, capsys):
    # scale the qubit frequency entries of both coherence blocks in the
    # generator the closed forms build: the master-equation oracle, which
    # builds its own Liouvillian, must catch it, and so must the memory-kernel
    # check, whose Volterra solve builds its generator through nzkernel's own
    # import while its reference is the closed forms
    build_generator = propagator.build_generator

    def corrupted(params, k):
        gen = build_generator(params, k)
        gen[5, 5] *= 1.01
        gen[7, 7] *= 1.01
        return gen

    monkeypatch.setattr(propagator, "build_generator", corrupted)
    assert main(["verify", "--level", "full", "--fast"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # s = |u|^2 keeps fig3's run a state, so its check fails on the
    # deviation, not the health check; every check that compares the
    # primary path with an independent reference must trip
    for line in ("FAIL oracle-equivalence[fig2]: max deviation ",
                 "FAIL oracle-equivalence[fig3]: max deviation ",
                 "FAIL nz-volterra: max deviation ",
                 "FAIL map-factorization[fig2]: "):
        assert any(ln.startswith(line) for ln in lines), line
    # exit 1 must come from failed checks, which end with the tally; an
    # uncaught exception would print neither
    assert re.fullmatch(r"\d+/\d+ checks passed", lines[-1])


def test_verify_catches_an_unphysical_primary_state(monkeypatch):
    # shift fig3's coherence f by 0.1 in the states verify reads, not in the
    # concurrence simulate prints: its first state gets the eigenvalue
    # 0.5 - 0.6 = -0.1, and the eigenvalue route moves off the printed value
    grid = TimeGrid(2.0, 201)
    target = simulate(preset_params("fig3"), grid).f
    x_matrix = verify.x_matrix

    def corrupted(a, b, c, d, f):
        return x_matrix(a, b, c, d, f + 0.1 if np.array_equal(f, target) else f)

    monkeypatch.setattr(verify, "x_matrix", corrupted)
    lines = {r.name: r.line() for r in verify.run_quick(grid)}
    assert re.fullmatch(
        r"FAIL physicality\[fig3\]: trace dev \S+, herm dev 0\.00e\+00, min eig -1\.00e-01",
        lines.pop("physicality[fig3]"),
    )
    assert lines.pop("concurrence-routes[fig3]") == (
        "FAIL concurrence-routes[fig3]: max deviation 2.00e-01"
    )
    assert len(lines) == 16 and all(line.startswith("PASS ") for line in lines.values())


def test_verify_fails_both_state_checks_of_a_failed_run(monkeypatch):
    def failing(params, grid):
        if params == preset_params("fig6"):
            raise RunHealthError("negative population -1.000e-03")
        return simulate(params, grid)

    monkeypatch.setattr(verify, "simulate", failing)
    lines = {r.name: r.line() for r in verify.run_quick(TimeGrid(2.0, 201))}
    for check in ("physicality", "concurrence-routes"):
        line = lines.pop(f"{check}[fig6]")
        assert line == f"FAIL {check}[fig6]: negative population -1.000e-03"
    assert len(lines) == 16 and all(line.startswith("PASS ") for line in lines.values())


def test_run_quick_decomposes_each_preset_state_once(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return original(a, *args, **kwargs)

        return counted

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    assert all(r.passed for r in verify.run_quick())
    # physicality reads the decomposition the concurrence route takes
    assert calls == [("eigh", (default_grid().num_points, 4, 4))] * len(PRESETS)


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_TABLE:
        assert name in out
    assert "default grid" in out


@pytest.mark.skipif(
    shutil.which("nmqsim") is None,
    reason="no nmqsim executable on PATH: the console script exists only once the package is installed",
)
def test_console_entry_point():
    proc = subprocess.run(
        ["nmqsim", "list-presets"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "fig2" in proc.stdout


def test_console_script_declaration():
    # the declaration the installed `nmqsim` wrapper is generated from,
    # run the way that wrapper runs it
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"nmqsim": "nmqsim.cli:main"}

    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint(name='nmqsim', value={scripts['nmqsim']!r}, group='console_scripts').load()\n"
        "sys.argv = ['nmqsim', 'list-presets']\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper], capture_output=True, text=True, timeout=60,
        env=_source_env(),
    )
    assert proc.returncode == 0
    assert "fig2" in proc.stdout


def _source_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _outputs(root):
    """Every file under root by relative path, run.json aside: it holds a timestamp."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file() and path.name != "run.json"
    }


def test_scenario_table(tmp_path):
    # every row of tests/cli_scenarios.py runs here and then in one fresh
    # interpreter; both runs check each row, and must leave the same bytes
    run_scenarios(tmp_path / "here")
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(REPO_ROOT / "tests" / "cli_scenarios.py"),
         str(tmp_path / "there")],
        capture_output=True, text=True, timeout=300, env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    here, there = _outputs(tmp_path / "here"), _outputs(tmp_path / "there")
    assert sorted(here) == sorted(there)
    assert [str(path) for path in sorted(here) if here[path] != there[path]] == []


def loaded_scipy_modules(code, *args):
    """The scipy modules and importlib.metadata in sys.modules after running code in a fresh interpreter."""
    probe = (
        f"import json, sys\n{code}\nprint(json.dumps(sorted(name for name in sys.modules "
        "if name.partition('.')[0] == 'scipy' or name == 'importlib.metadata')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, timeout=60,
        env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy_or_metadata():
    # a fresh interpreter, since this session's tests may import them themselves
    assert loaded_scipy_modules("import nmqsim.cli") == []


def test_simulate_does_not_load_unused_scipy(tmp_path):
    # the run record reads scipy's version from its installed metadata
    code = "from nmqsim import cli\ncli.main(['simulate', '--preset', 'fig3', '--out', sys.argv[1]])"
    assert loaded_scipy_modules(code, str(tmp_path)) == ["importlib.metadata"]


def test_sweep_loads_no_scipy(tmp_path):
    cfg = write_config(tmp_path, "alpha1 = 0.5, 2\ngamma = 0.5\nnbar = 0.2\n")
    code = "from nmqsim import cli\ncli.main(['sweep', sys.argv[1], '--out', sys.argv[2]])"
    assert loaded_scipy_modules(code, cfg, str(tmp_path / "sweep")) == ["importlib.metadata"]
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def test_cross_checks_load_scipy_on_first_call(tmp_path):
    # the oracle and the memory-kernel solver import scipy.linalg when they take
    # an exponential, and give the values of this session, where it is loaded
    imports = "import numpy as np\nfrom nmqsim import TimeGrid, evolve_full, preset_params, solve_nz"
    assert loaded_scipy_modules(imports) == []
    # step_powers marches on scipy's BLAS, imported at its first call
    march = "import numpy as np\nimport nmqsim.propagator as p"
    assert loaded_scipy_modules(march) == []
    assert "scipy.linalg" in loaded_scipy_modules(f"{march}\np.step_powers(np.ones(2), np.eye(2), 3)")
    params, grid, init = preset_params("fig3"), TimeGrid(1.0, 11), np.array([1.0, 0.5, 0.25, 0.125])
    calls = (
        "from nmqsim.oracle import bell_state, full_initial_state\n"
        "params, grid = preset_params('fig3'), TimeGrid(1.0, 11)\n"
        "rho = evolve_full(params, full_initial_state(bell_state(), params.nbar), grid)\n"
        f"y = solve_nz(params, 1, np.array({init.tolist()!r}), grid)\n"
        "np.savez(sys.argv[1], rho=rho, y=y)"
    )
    assert "scipy.linalg" in loaded_scipy_modules(f"{imports}\n{calls}", str(tmp_path / "v.npz"))
    from nmqsim.nzkernel import solve_nz
    from nmqsim.oracle import bell_state, evolve_full, full_initial_state

    values = np.load(tmp_path / "v.npz")
    rho = evolve_full(params, full_initial_state(bell_state(), params.nbar), grid)
    assert np.array_equal(values["rho"], rho)
    assert np.array_equal(values["y"], solve_nz(params, 1, init, grid))
