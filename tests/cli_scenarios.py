"""The command-line scenario table, and the one function that runs it.

Each row of ``SCENARIOS`` is one ``nmqsim`` invocation:

* ``name``: names its files under the output root;
* ``argv``: the arguments, where ``{config}`` is the path of the row's
  config file, ``{out}`` its output directory and ``{root}`` the output
  root;
* ``config``: the config text, written to ``{config}`` (optional);
* ``exit``: the expected exit code (default 0);
* ``stderr``: the exact expected stderr, with the output root spelled
  ``{root}`` (default empty);
* ``lines``: the exact lines expected in an output file, by file name
  (optional);
* ``exact``: every event of ``events.csv`` in order, as (kind, reference
  time) with the reference from 60-digit arithmetic; each printed time
  must equal ``%.12g`` of its reference and be marked precise (optional).

To add a scenario, add a row. ``tests/test_config_cli.py::test_scenario_table``
runs the table in-process and then once more in a second process, and
requires every file the two runs leave, ``run.json`` aside, to be
byte-identical. To run it alone into a fresh directory::

    PYTHONPATH=src python -W error tests/cli_scenarios.py OUT_ROOT
"""

import io
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from nmqsim.cli import main

SIMULATE = ["simulate", "{config}", "--out", "{out}"]
SWEEP = ["sweep", "{config}", "--out", "{out}"]

# config faults that both readers name with the same line: (name, config,
# message); each becomes a simulate row NAME and a sweep row NAME-sweep
CONFIG_FAULTS = [
    ("no-equals", "alpha1 1.5\n", "line 1: expected key = value, got 'alpha1 1.5'"),
    ("no-value", "alpha1 =\n", "key 'alpha1' has no value"),
    ("infinite", "gamma = inf\n", "key 'gamma' must be finite"),
    ("range-parts", "alpha1 = 1:2\n", "key 'alpha1': range syntax is lo:hi:n"),
    ("range-count", "alpha1 = 1:2:x\n", "key 'alpha1': range count must be an integer"),
    ("range-order", "alpha1 = 2:1:5\n", "key 'alpha1': range needs hi > lo and n >= 2"),
]

SCENARIOS = [
    {"name": "fig3", "argv": ["simulate", "--preset", "fig3", "--out", "{out}"]},
    {"name": "fig6", "argv": ["simulate", "--preset", "fig6", "--out", "{out}"]},
    # the zero-detuning exceptional point alpha = gamma_eff / 2, where s is
    # summed as a series throughout
    {
        "name": "exceptional",
        "argv": SIMULATE,
        "config": "delta1 = 0\nalpha1 = 0.25\ngamma = 0.5\nnbar = 0\n",
    },
    # alpha = gamma_eff / 4, where the series gives way to the difference
    # quotients at t = 2.31
    {
        "name": "switch",
        "argv": SIMULATE,
        "config": "delta1 = 0\nalpha1 = 0.125\ngamma = 0.5\nnbar = 0\n",
    },
    # a stiff point with gamma_eff = 2e5
    {
        "name": "stiff",
        "argv": SIMULATE,
        "config": "delta1 = 0.3\nalpha1 = 2\ngamma = 100\nnbar = 1000\n",
    },
    # a death at t = 789639, where one ulp (1.16e-10) exceeds 1e-10, so only
    # the relative term of the refinement's stopping rule, 4 eps |t|, lets
    # it finish
    {
        "name": "late-death",
        "argv": SIMULATE,
        "config": "delta1 = 0\nalpha1 = 0.0007\ngamma = 0.5\nnbar = 0.2\nt_end = 4e6\nnum_points = 2001\n",
        "exact": [("FINAL_DEATH", "789639.302275430875118049172759")],
    },
    # absolute auxiliary frequencies instead of detunings
    {
        "name": "omega34",
        "argv": SIMULATE,
        "config": "omega3 = 9\nomega4 = 8.5\nalpha1 = 2\nalpha2 = 1.5\ngamma = 0.5\nnbar = 0.2\n",
        "exact": [
            ("DEATH", "0.594120057322716117194165914960"),
            ("REVIVAL", "1.50371615748890950522355104436"),
            ("FINAL_DEATH", "1.78885939869073396680936953329"),
        ],
    },
    # a grid to t = 1e20: refining the death near t = 36 evaluates the
    # response series beside times up to 1e20, which must stay quiet
    {
        "name": "long-grid",
        "argv": SIMULATE,
        "config": "t_end = 1e20\nalpha1 = 0.3\ngamma = 1\n",
        "exact": [("FINAL_DEATH", "35.7166067514740897278740964599")],
    },
    # 101 points cannot resolve the first dead interval: one warning line
    # names exactly the two events that events.csv marks imprecise
    {
        "name": "coarse-events",
        "argv": SIMULATE,
        "config": "alpha1 = 3\nnum_points = 101\n",
        "stderr": (
            "warning: 2 of 7 events border a dead interval shorter than two grid steps, so their "
            "crossing times are grid-resolution limited: DEATH at t=1.5885003329; "
            "REVIVAL at t=1.6959064409\n"
        ),
        "lines": {
            "events.csv": [
                "kind,time,precise",
                "DEATH,1.5885003329,false",
                "REVIVAL,1.6959064409,false",
                "DEATH,3.67941753237,true",
                "REVIVAL,3.86807274315,true",
                "DEATH,5.76294166322,true",
                "REVIVAL,6.12936252279,true",
                "FINAL_DEATH,6.80045250503,true",
            ],
        },
    },
    # the same file as a sweep of one point, which has no axis value to
    # name its row by
    {
        "name": "coarse-events-sweep",
        "argv": ["sweep", "{root}/coarse-events.cfg", "--out", "{out}"],
        "stderr": (
            "warning: 1 of 1 sweep rows have a dead interval shorter than two grid steps, so their "
            "crossing times are grid-resolution limited: the only point\n"
        ),
    },
    # a revival level sqrt(threshold) below the death level is refused
    {
        "name": "threshold-above-one",
        "argv": SIMULATE,
        "config": "threshold = 4\nnum_points = 101\n",
        "exit": 2,
        "stderr": "configuration error: key 'threshold' must lie in (0, 1]\n",
    },
    # a coupling that overflows the responses: the run-health check names
    # it on one line, with no numpy warning before it, and nothing is written
    {
        "name": "overflow",
        "argv": SIMULATE,
        "config": "alpha1 = 1e200\n",
        "exit": 3,
        "stderr": "numerical failure: non-finite X-state component\n",
    },
    # a subnormal or zero grid step cannot resolve uniform samples; the
    # sweep refuses it before running a point
    {
        "name": "subnormal-step",
        "argv": SIMULATE,
        "config": "t_end = 1e-310\n",
        "exit": 2,
        "stderr": "configuration error: grid step 5e-314 is below the smallest normal float\n",
    },
    {
        "name": "subnormal-step-sweep",
        "argv": SWEEP,
        "config": "alpha1 = 1, 2\nt_end = 1e-310\n",
        "exit": 2,
        "stderr": "configuration error: grid step 5e-314 is below the smallest normal float\n",
    },
    {
        "name": "zero-step",
        "argv": SIMULATE,
        "config": "t_end = 5e-324\n",
        "exit": 2,
        "stderr": "configuration error: grid step 0 is below the smallest normal float\n",
    },
    {
        "name": "zero-step-sweep",
        "argv": SWEEP,
        "config": "alpha1 = 1, 2\nt_end = 5e-324\n",
        "exit": 2,
        "stderr": "configuration error: grid step 0 is below the smallest normal float\n",
    },
    # "preset = fig3 # x" would read as fig3 once the comment is stripped,
    # so the flag is checked before it becomes a config line
    {
        "name": "preset-comment",
        "argv": ["simulate", "--preset", "fig3 # x", "--out", "{out}"],
        "exit": 2,
        "stderr": "configuration error: unknown preset 'fig3 # x'\n",
    },
    # usage errors: no scenario, two scenarios, an unreadable file, a grid
    # of one point and an unknown key
    {
        "name": "no-scenario",
        "argv": ["simulate", "--out", "{out}"],
        "exit": 2,
        "stderr": "configuration error: give a config file or --preset\n",
    },
    {
        "name": "config-and-preset",
        "argv": ["simulate", "{config}", "--preset", "fig2", "--out", "{out}"],
        "config": "preset = fig2\n",
        "exit": 2,
        "stderr": "configuration error: give either a config file or --preset, not both\n",
    },
    {
        "name": "missing-config",
        "argv": SIMULATE,
        "exit": 2,
        "stderr": (
            "configuration error: cannot read config file: "
            "[Errno 2] No such file or directory: '{root}/missing-config.cfg'\n"
        ),
    },
    {
        "name": "too-few-points",
        "argv": SIMULATE,
        "config": "num_points = 0\n",
        "exit": 2,
        "stderr": "configuration error: num_points 0 is less than 2\n",
    },
    {
        "name": "unknown-key",
        "argv": SIMULATE,
        "config": "alpha7 = 1\n",
        "exit": 2,
        "stderr": "configuration error: unknown configuration key 'alpha7'\n",
    },
    *(
        {
            "name": name + suffix,
            "argv": argv,
            "config": config,
            "exit": 2,
            "stderr": f"configuration error: {message}\n",
        }
        for name, config, message in CONFIG_FAULTS
        for suffix, argv in (("", SIMULATE), ("-sweep", SWEEP))
    ),
    {
        "name": "sweep",
        "argv": SWEEP,
        "config": "alpha1 = 0.5, 2, 5\ngamma = 0.5, 1\nnbar = 0.2\nnum_points = 401\n",
    },
    {
        "name": "sweep-omega3",
        "argv": SWEEP,
        "config": "omega3 = 9, 9.5\nalpha1 = 1:3:4\nnbar = 0.2\nnum_points = 401\n",
    },
    # each row's only live interval, [0, 35.7] and [0, 10.6], lies inside
    # the first grid step of 5e16, where the trapezoid sees only C(0) = 1
    # and C(step) = 0; both deaths are refined precisely.  One warning line
    # says so, with no source path, source line or RuntimeWarning beside it
    {
        "name": "sweep-long",
        "argv": SWEEP,
        "config": "t_end = 1e20\nalpha1 = 0.3, 0.5\ngamma = 1\n",
        "stderr": (
            "warning: 2 of 2 sweep rows have a live interval shorter than two grid steps, so their "
            "concurrence_integral is grid-resolution limited: alpha1=0.3; alpha1=0.5\n"
        ),
    },
    # a grid step of 1 resolves both live intervals
    {
        "name": "sweep-fine",
        "argv": SWEEP,
        "config": "t_end = 100\nnum_points = 101\nalpha1 = 0.3, 0.5\ngamma = 1\n",
    },
    # a sweep that fails at one point exits 3, names that point and writes
    # nothing
    {
        "name": "sweep-fail",
        "argv": SWEEP,
        "config": "alpha1 = 1, 2, 1e200\ngamma = 0.5, 1\nnum_points = 101\n",
        "exit": 3,
        "stderr": (
            "numerical failure: sweep point alpha1=1e+200, gamma=0.5: "
            "non-finite X-state component\n"
        ),
    },
    # --svg is the only way to get the plot
    {"name": "fig3-svg", "argv": ["simulate", "--preset", "fig3", "--svg", "--out", "{out}"]},
    # the oracles' batched products go through threaded BLAS; the printed
    # numbers must not depend on the run
    {"name": "verify-full", "argv": ["verify", "--level", "full"]},
]


def run_scenarios(root) -> None:
    """Run each row under ``root`` with every warning an error, and check it.

    Row NAME reads ``root/NAME.cfg`` and writes under ``root/NAME/``; its
    stdout and stderr, with ``root`` spelled ``{root}``, are kept in
    ``root/NAME.stdout`` and ``root/NAME.stderr``.  The first row that
    differs from its expectations raises AssertionError.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for row in SCENARIOS:
        name = row["name"]
        out = root / name
        config = root / f"{name}.cfg"
        if "config" in row:
            config.write_text(row["config"], encoding="utf-8")
        argv = [arg.format(config=config, out=out, root=root) for arg in row["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(argv)
        streams = {}
        for suffix, stream in (("stdout", stdout), ("stderr", stderr)):
            streams[suffix] = stream.getvalue().replace(str(root), "{root}")
            (root / f"{name}.{suffix}").write_text(streams[suffix], encoding="utf-8")

        assert code == row.get("exit", 0), f"{name}: exit {code}, stderr {streams['stderr']!r}"
        assert streams["stderr"] == row.get("stderr", ""), f"{name}: stderr {streams['stderr']!r}"
        if code != 0:
            assert not out.exists(), f"{name}: exit {code} left {out}"
        for file, lines in row.get("lines", {}).items():
            assert (out / file).read_text().splitlines() == lines, f"{name}: {file}"
        if "exact" in row:
            events = [ln.split(",") for ln in (out / "events.csv").read_text().splitlines()[1:]]
            expected = [[kind, "%.12g" % float(ref), "true"] for kind, ref in row["exact"]]
            assert events == expected, f"{name}: events {events}"


if __name__ == "__main__":
    run_scenarios(sys.argv[1])
