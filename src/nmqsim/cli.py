"""Command-line front end.

Subcommands:

    simulate      run one scenario, write trajectory.csv / events.csv / run.json
    sweep         run a parameter cross product, write sweep.csv
    verify        run the self-verification suites
    list-presets  show the built-in parameter table

Exit codes: 0 ok, 1 verification failure, 2 usage or configuration error
(an output directory or file that cannot be written included), 3 numerical
failure (an unhealthy run, memory exhaustion, or any other ValueError or
RuntimeError, such as a crossing the event refinement cannot bracket).  A
sweep runs its points one after another on one thread, and a failing point
is named in its ``numerical failure:`` line.

An event's ``precise`` flag is the library's only record of a dead
interval shorter than two grid steps.  Its crossing times are refined like
any other, but a grid that barely resolves such a dip may miss others like
it.  This module reports those flags, in one ``warning:`` line on stderr
per ``simulate`` or ``sweep`` run.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import PRESETS, ConfigError, Scenario, default_grid, parse_scenario, parse_sweep
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
from .verify import run_full, run_quick

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# what a run can raise that main reports as a numerical failure
_NUMERICAL_ERRORS = (ArithmeticError, MemoryError, RuntimeError, ValueError)


def _reason(exc: Exception) -> str:
    # str(MemoryError()) is empty; numpy's "Unable to allocate ..." is kept
    return str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")


def _read_config(path: str) -> str:
    try:
        # utf-8-sig drops a leading byte-order mark and reads plain UTF-8 unchanged
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError is a ValueError, which main reports as a numerical failure
        raise ConfigError(f"cannot read config file: {exc}") from None


def _scenario_from_args(args) -> Scenario:
    if args.config is None and args.preset is None:
        raise ConfigError("give a config file or --preset")
    if args.config is not None and args.preset is not None:
        raise ConfigError("give either a config file or --preset, not both")
    if args.preset is not None:
        # input validation, not a duplicate: "fig3 # x" would read as "preset = fig3"
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}", key="preset")
        text = f"preset = {args.preset}\n"
    else:
        text = _read_config(args.config)
    return parse_scenario(text)


def _warn_grid_limited(limited: list, total: int, what: str) -> None:
    """One stderr line for the run, naming the items the grid barely resolves."""
    if limited:
        print(f"warning: {len(limited)} of {total} {what}: " + "; ".join(limited), file=sys.stderr)


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    result = simulate(scenario.params, scenario.grid)
    events = extract_events(result.series, threshold=scenario.threshold)
    limited = [f"{e.kind.value} at t={format_number(e.time)}" for e in events if not e.precise]
    _warn_grid_limited(limited, len(events), "events border a dead interval shorter than two "
                       "grid steps, so the grid barely resolves such dips and may miss others "
                       "like them")
    out = Path(args.out)
    files = [out / "trajectory.csv", out / "events.csv"]
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(files[0], result)
    write_events_csv(files[1], events)
    if args.svg:
        files.append(out / "trajectory.svg")
        write_svg(files[-1], result)
    write_run_record(out / "run.json", dataclasses.asdict(scenario), files)
    print(f"wrote {', '.join(str(f) for f in files)}")
    return EXIT_OK


def _sweep_row(assignment, params, grid, threshold):
    """One sweep.csv row, and whether its dead and its live intervals are grid-resolved.

    Dead intervals are resolved when every event is precise.  A live interval,
    from t = 0 or a REVIVAL to the next DEATH or FINAL_DEATH, is resolved
    when it spans at least two grid steps; a shorter one leaves the
    concurrence integral to the trapezoid's few samples.
    """
    result = simulate(params, grid)
    events = extract_events(result.series, threshold=threshold)
    final = next(
        (e.time for e in events if e.kind is EventKind.FINAL_DEATH), None
    )
    revivals = sum(1 for e in events if e.kind is EventKind.REVIVAL)
    integral = float(np.trapezoid(result.series.concurrence, grid.points))
    # the run starts alive, so its deaths and revivals alternate from t = 0
    born = [0.0] + [e.time for e in events if e.kind is EventKind.REVIVAL]
    died = [e.time for e in events if e.kind is not EventKind.REVIVAL]
    live_resolved = all(d - b >= 2.0 * grid.step for b, d in zip(born, died))
    values = [format_number(v) for v in assignment.values()]
    values.append("none" if final is None else format_number(final))
    values.append(str(revivals))
    values.append(format_number(integral))
    return values, all(e.precise for e in events), live_resolved


def cmd_sweep(args) -> int:
    text = _read_config(args.config)
    spec = parse_sweep(text)
    rows, limited, short_lived = [], [], []
    for assignment, params in spec.points():
        named = ", ".join(f"{k}={format_number(v)}" for k, v in assignment.items())
        named = named or "the only point"
        try:
            row, precise, live_resolved = _sweep_row(assignment, params, spec.grid, spec.threshold)
        except _NUMERICAL_ERRORS as exc:
            raise RuntimeError(f"sweep point {named}: {_reason(exc)}") from exc
        rows.append(row)
        if not precise:
            limited.append(named)
        if not live_resolved:
            short_lived.append(named)
    _warn_grid_limited(limited, len(rows), "sweep rows have a dead interval shorter than two "
                       "grid steps, so the grid barely resolves such dips and may miss others "
                       "like them")
    _warn_grid_limited(short_lived, len(rows), "sweep rows have a live interval shorter than "
                       "two grid steps, so their concurrence_integral is grid-resolution limited")

    out = Path(args.out)
    path = out / "sweep.csv"
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(path, list(spec.axes), rows)
    write_run_record(out / "run.json", dataclasses.asdict(spec), [path])
    print(f"wrote {path} ({len(rows)} points)")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_quick() if args.level == "quick" else run_full(fast=args.fast)
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
    except OSError as exc:
        # _read_config turns read errors into ConfigError, so this one came from writing output
        print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {_reason(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
