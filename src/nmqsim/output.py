"""Deterministic CSV, SVG and run-record emission.

Data files are byte-reproducible: fixed 12-significant-digit formatting,
`.` decimal point, comma separators, LF line endings, and no timestamps.
The run record (run.json) carries the non-deterministic metadata instead.
"""

import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .pipeline import SimulationResult

__all__ = [
    "format_number",
    "write_trajectory_csv",
    "write_events_csv",
    "write_sweep_csv",
    "write_svg",
    "write_run_record",
]


# the one number format of every data file: 12 significant digits
NUMBER_FORMAT = "%.12g"


def format_number(x) -> str:
    """12 significant digits; real numbers only (complex parts are split)."""
    return NUMBER_FORMAT % float(x)


def _write_lines(path: Path, lines) -> None:
    # newline="\n" pins LF endings on every platform
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def write_trajectory_csv(path, result: SimulationResult) -> None:
    series = result.series
    table = np.column_stack((
        result.grid.points, result.a, result.b, result.c, result.d,
        result.f.real, result.f.imag,
        series.concurrence, series.precursor, series.eof,
    ))
    row_format = ",".join([NUMBER_FORMAT] * table.shape[1])
    header = "t,a,b,c,d,re_f,im_f,concurrence,precursor,eof"
    _write_lines(Path(path), [header] + [row_format % tuple(row) for row in table.tolist()])


def write_events_csv(path, events) -> None:
    rows = ["kind,time,precise"]
    for event in events:
        rows.append(
            f"{event.kind.value},{format_number(event.time)},"
            f"{'true' if event.precise else 'false'}"
        )
    _write_lines(Path(path), rows)


def write_sweep_csv(path, header_keys, rows) -> None:
    """rows: iterables of (assignment values..., final_death, revivals, integral)."""
    header = ",".join(list(header_keys) + ["final_death", "revivals", "concurrence_integral"])
    lines = [header]
    for row in rows:
        lines.append(",".join(row))
    _write_lines(Path(path), lines)


def _svg_polyline(xs, ys, x0, y0, w, h, xmin, xmax, ymin, ymax, color) -> str:
    sx = w / (xmax - xmin)
    sy = h / (ymax - ymin)
    pts = " ".join(
        f"{x0 + (x - xmin) * sx:.2f},{y0 + h - (y - ymin) * sy:.2f}"
        for x, y in zip(xs, ys)
    )
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'
    )


def write_svg(path, result: SimulationResult) -> None:
    """Minimal line chart of concurrence and precursor; no plotting dependency."""
    t = result.grid.points
    series = result.series
    width, height = 720, 420
    x0, y0, w, h = 60, 20, 640, 360
    ymin = min(-0.05, float(series.precursor.min()) - 0.05)
    ymax = max(1.05, float(series.precursor.max()) + 0.05)
    xmin, xmax = float(t[0]), float(t[-1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="#888"/>',
    ]
    if ymin < 0.0 < ymax:
        yzero = y0 + h - (0.0 - ymin) * h / (ymax - ymin)
        parts.append(
            f'<line x1="{x0}" y1="{yzero:.2f}" x2="{x0 + w}" y2="{yzero:.2f}" '
            f'stroke="#ccc" stroke-dasharray="4 3"/>'
        )
    parts.append(
        _svg_polyline(t, series.precursor, x0, y0, w, h, xmin, xmax, ymin, ymax, "#c44")
    )
    parts.append(
        _svg_polyline(t, series.concurrence, x0, y0, w, h, xmin, xmax, ymin, ymax, "#226")
    )
    parts.append(
        f'<text x="{x0}" y="{height - 6}" font-size="12" font-family="sans-serif">'
        f"t from {format_number(xmin)} to {format_number(xmax)}; "
        f"concurrence (dark blue), precursor (red)</text>"
    )
    parts.append("</svg>")
    _write_lines(Path(path), parts)


def scenario_hash(scenario: dict) -> str:
    """First 16 hex digits of the SHA-256 of the resolved scenario.

    The scenario is serialized as JSON with sorted keys and floats in
    their shortest round-trip form, so the hash depends on the resolved
    values, not on how the config file spells them.
    """
    text = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


@functools.cache
def _scipy_version() -> str | None:
    # read from scipy's installed metadata, so a run never imports scipy;
    # once per process, since the lookup scans the installed distributions
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("scipy")
    except PackageNotFoundError:
        # simulate and sweep run without scipy; only verify needs it
        return None


def write_run_record(path, scenario: dict, output_files) -> None:
    from . import __version__

    record = {
        "tool": "nmqsim",
        "version": __version__,
        "scenario": scenario,
        "scenario_hash": scenario_hash(scenario),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": [str(p) for p in output_files],
        "versions": {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
