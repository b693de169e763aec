"""Command-line front end.

Subcommands:

    simulate      run one scenario, write trajectory.csv / events.csv / run.json
    sweep         run a parameter cross product, write sweep.csv
    verify        run the self-verification suites
    list-presets  show the built-in parameter table

Exit codes: 0 ok, 1 verification failure, 2 usage or configuration error
(an output directory or file that cannot be written included), 3 numerical
failure (an unhealthy run, memory exhaustion, or any other ValueError, such
as an event crossing that Brent's method cannot bracket).  A sweep runs its
points one after another on one thread.

An event's ``precise`` flag is the library's only record of a crossing
that the time grid did not resolve.  This module reports those flags, in
one UserWarning per ``simulate`` or ``sweep`` run.
"""

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import ConfigError, Scenario, parse_scenario, parse_sweep
from .entanglement import EventKind, extract_events
from .output import (
    format_number,
    write_events_csv,
    write_run_record,
    write_svg,
    write_sweep_csv,
    write_trajectory_csv,
)
from .pipeline import simulate
from .presets import PRESETS, default_grid
from .verify import run_full, run_quick

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None


def _scenario_from_args(args) -> Scenario:
    if args.config is None and args.preset is None:
        raise ConfigError("give a config file or --preset")
    if args.config is not None and args.preset is not None:
        raise ConfigError("give either a config file or --preset, not both")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}", key="preset")
        text = f"preset = {args.preset}\n"
    else:
        text = _read_config(args.config)
    return parse_scenario(text)


def _warn_grid_limited(limited: list, total: int, what: str) -> None:
    """One warning for the run, naming the items the grid resolution limits."""
    if limited:
        warnings.warn(
            f"{len(limited)} of {total} {what} a dead interval shorter than two grid "
            "steps, so their crossing times are grid-resolution limited: "
            + "; ".join(limited),
            stacklevel=3,
        )


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    result = simulate(scenario.params, scenario.grid)
    events = extract_events(result.series, threshold=scenario.threshold)
    _warn_grid_limited(
        [f"{e.kind.value} at t={format_number(e.time)}" for e in events if not e.precise],
        len(events),
        "events border",
    )
    out = Path(args.out)
    files = [out / "trajectory.csv", out / "events.csv"]
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(files[0], result)
        write_events_csv(files[1], events)
        if args.svg:
            files.append(out / "trajectory.svg")
            write_svg(files[-1], result)
        write_run_record(out / "run.json", dataclasses.asdict(scenario), files)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    print(f"wrote {', '.join(str(f) for f in files)}")
    return EXIT_OK


def _sweep_row(assignment, params, grid, threshold):
    """One sweep.csv row, and whether all of its crossing times are precise."""
    result = simulate(params, grid)
    events = extract_events(result.series, threshold=threshold)
    final = next(
        (e.time for e in events if e.kind is EventKind.FINAL_DEATH), None
    )
    revivals = sum(1 for e in events if e.kind is EventKind.REVIVAL)
    integral = float(np.trapezoid(result.series.concurrence, grid.points))
    values = [format_number(v) for v in assignment.values()]
    values.append("none" if final is None else format_number(final))
    values.append(str(revivals))
    values.append(format_number(integral))
    return values, all(e.precise for e in events)


def cmd_sweep(args) -> int:
    text = _read_config(args.config)
    spec = parse_sweep(text)
    rows, limited = [], []
    for assignment, params in spec.points():
        row, precise = _sweep_row(assignment, params, spec.grid, spec.threshold)
        rows.append(row)
        if not precise:
            named = ", ".join(f"{key}={value}" for key, value in zip(spec.axes, row))
            limited.append(named or "the only point")
    _warn_grid_limited(limited, len(rows), "sweep rows have")

    out = Path(args.out)
    path = out / "sweep.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(path, list(spec.axes), rows)
        write_run_record(out / "run.json", dataclasses.asdict(spec), [path])
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    print(f"wrote {path} ({len(rows)} points)")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.level == "quick":
        results = run_quick(corrupt=args.corrupt_generator)
    else:
        results = run_full(corrupt=args.corrupt_generator, fast=args.fast)
    failures = 0
    for res in results:
        print(res.line())
        failures += 0 if res.passed else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_list_presets(_args) -> int:
    grid = default_grid()
    print(f"{'name':8} {'delta':>6} {'alpha':>6} {'gamma':>8} {'nbar':>5}  note")
    for name, preset in PRESETS.items():
        print(
            f"{name:8} {preset.delta:6g} {preset.alpha:6g} "
            f"{preset.gamma:8.6g} {preset.nbar:5g}  {preset.note}"
        )
    print(
        f"\ndefault grid: [0, {format_number(grid.t_end)}] "
        f"with {grid.num_points} points; omega1 = omega2 = 10"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmqsim",
        description="Two-qubit entanglement dynamics with structured thermal reservoirs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    p_sim.add_argument("config", nargs="?", help="key=value scenario file")
    p_sim.add_argument("--preset", help="run a built-in preset instead of a config file")
    p_sim.add_argument("--out", default=".", help="output directory (default: .)")
    p_sim.add_argument("--svg", action="store_true", help="also write trajectory.svg")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("config", help="key=value sweep file (values may be lists)")
    p_sweep.add_argument("--out", default=".", help="output directory (default: .)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run self-verification")
    p_ver.add_argument(
        "--level", choices=("quick", "full"), default="quick",
        help="quick: primary-path invariants; full: adds the independent oracles",
    )
    p_ver.add_argument("--fast", action="store_true", help=argparse.SUPPRESS)
    p_ver.add_argument("--corrupt-generator", action="store_true", help=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-presets", help="show the built-in parameter table")
    p_list.set_defaults(func=cmd_list_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, MemoryError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
