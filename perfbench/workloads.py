"""The four benchmark workloads and the checks that count their operations.

A workload is one pass of CLI invocations built from a seed.  Seed 0 runs
the reference inputs exactly and compares outputs with rows frozen from
the commit that introduced the benchmark; other seeds shuffle the preset
order and shift the sweep axes by under 1% of a grid step, and get
invariant checks instead of frozen rows.  The shift is that small because
revival counts are sensitive to the damping near its low end: half a step
cut the 195 revivals of sweep_death to as few as 111, and its time with
them, while a 1% shift keeps 191 to 194.

An operation is one preset ``simulate``, one sweep row or one ``verify``
check line.  It fails on a nonzero exit code or on output outside the
reference or the invariants.
"""

import csv
import hashlib
import itertools
import math
import random
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Frozen event table of tests/test_entanglement.py (kind, time), compared at 1e-6.
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
EVENT_TOL = 1e-6
FINAL_DEATH_TOL = 1e-6
INTEGRAL_TOL = 1e-8  # absolute, on integrals of order 1 printed to 12 digits
T_END = 10.0  # default grid end, used by every workload


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _alternation_ok(kinds):
    """DEATH and REVIVAL alternate, starting with DEATH; FINAL_DEATH only last."""
    expect = "DEATH"
    for i, kind in enumerate(kinds):
        if kind == "FINAL_DEATH":
            return expect == "DEATH" and i == len(kinds) - 1
        if kind != expect:
            return False
        expect = "REVIVAL" if kind == "DEATH" else "DEATH"
    return True


class Presets:
    """`simulate --preset <name>` for all nine presets on the default grid.

    A pass takes about half a second, so the tiny size is the same pass.
    """

    name = "presets"

    def __init__(self, seed, tiny, work):
        names = list(PRESET_EVENTS)
        if seed != 0:
            random.Random(seed).shuffle(names)
        self.names = names
        self.work = work
        self.hashes = {}

    def ops(self):
        return [
            (name, ["simulate", "--preset", name, "--out", str(self.work / name)])
            for name in self.names
        ]

    def check(self, name, rc, _stdout):
        """(attempted, failed, problems) for one preset run."""
        problems = [f"{name}: exit code {rc}"] if rc != 0 else self._problems(name)
        return 1, 1 if problems else 0, problems

    def _problems(self, name):
        out = self.work / name
        problems = []
        traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        if not np.isfinite(traj).all():
            problems.append(f"{name}: non-finite value in trajectory.csv")
        conc = traj[:, 7]
        if conc.min() < 0.0 or conc.max() > 1.0:
            problems.append(f"{name}: concurrence outside [0, 1]")
        with open(out / "events.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        kinds = [r["kind"] for r in rows]
        if not _alternation_ok(kinds):
            problems.append(f"{name}: events do not alternate: {kinds}")
        expected = PRESET_EVENTS[name]
        if kinds != [k for k, _ in expected]:
            problems.append(f"{name}: event kinds {kinds} != reference")
        else:
            for row, (_, t_ref) in zip(rows, expected):
                t = float(row["time"])
                if not abs(t - t_ref) <= EVENT_TOL or row["precise"] != "true":
                    problems.append(f"{name}: {row} differs from reference {t_ref}")
        digest = (_sha256(out / "trajectory.csv"), _sha256(out / "events.csv"))
        if self.hashes.setdefault(name, digest) != digest:
            problems.append(f"{name}: outputs differ from the first pass")
        return problems


class Sweep:
    """`sweep` over a cross product of linear axes; one operation per row."""

    def __init__(self, name, axes, fixed, reference, seed, tiny, work):
        self.name = name
        self.work = work
        self.reference = REFERENCE_DIR / reference if seed == 0 else None
        rng = random.Random(seed)
        self.axes = {}
        self.full_index = {}
        lines = []
        for key, (lo, hi, n) in axes.items():
            if seed != 0:
                shift = rng.uniform(0.0, 0.01) * (hi - lo) / (n - 1)
                lo, hi = lo + shift, hi + shift
            values = [float(v) for v in np.linspace(lo, hi, n)]
            if tiny:
                picks = (0, n // 2, n - 1)
                values = [values[i] for i in picks]
                lines.append(f"{key} = {', '.join(repr(v) for v in values)}")
            else:
                picks = range(n)
                lines.append(f"{key} = {lo!r}:{hi!r}:{n}")
            self.axes[key] = values
            self.full_index[key] = (list(picks), n)
        lines += [f"{key} = {value}" for key, value in fixed.items()]
        work.mkdir(parents=True, exist_ok=True)
        self.config = work / "sweep.cfg"
        self.config.write_text("\n".join(lines) + "\n", encoding="ascii")
        self.rows = math.prod(len(v) for v in self.axes.values())

    def ops(self):
        return [(self.name, ["sweep", str(self.config), "--out", str(self.work)])]

    def _reference_rows(self):
        """Frozen rows for this sweep's points, in output order."""
        with open(self.reference, newline="") as fh:
            table = list(csv.reader(fh))[1:]
        flat = []
        for combo in itertools.product(*(idx for idx, _ in self.full_index.values())):
            pos = 0
            for i, (_, n) in zip(combo, self.full_index.values()):
                pos = pos * n + i
            flat.append(table[pos])
        return flat

    def check(self, _label, rc, _stdout):
        """(attempted, failed, problems); a failed invocation fails every row."""
        if rc != 0:
            return self.rows, self.rows, [f"{self.name}: exit code {rc}"]
        with open(self.work / "sweep.csv", newline="") as fh:
            table = list(csv.reader(fh))
        header, body = table[0], table[1:]
        keys = list(self.axes)
        if header != keys + ["final_death", "revivals", "concurrence_integral"]:
            return self.rows, self.rows, [f"{self.name}: unexpected header {header}"]
        if len(body) != self.rows:
            return self.rows, self.rows, [f"{self.name}: {len(body)} rows, expected {self.rows}"]
        expected = itertools.product(*self.axes.values())
        reference = self._reference_rows() if self.reference else [None] * self.rows
        problems = [
            msg
            for row, point, ref in zip(body, expected, reference)
            if (msg := self._row_problem(row, point, ref, len(keys)))
        ]
        return self.rows, len(problems), problems

    def _row_problem(self, row, point, ref, naxes):
        label = f"{self.name} {dict(zip(self.axes, point))}"
        try:
            values = [float(v) for v in row[:naxes]]
            final = None if row[naxes] == "none" else float(row[naxes])
            revivals = int(row[naxes + 1])
            integral = float(row[naxes + 2])
        except (ValueError, IndexError):
            return f"{label}: malformed row {row}"
        if not all(math.isclose(v, p, rel_tol=1e-11) for v, p in zip(values, point)):
            return f"{label}: axis values {values} out of order"
        if final is not None and not 0.0 <= final <= T_END:
            return f"{label}: final death {final} outside the grid"
        if revivals < 0 or not (math.isfinite(integral) and 0.0 <= integral <= T_END):
            return f"{label}: revivals {revivals} or integral {integral} out of range"
        if ref is None:
            return None
        ref_final = None if ref[naxes] == "none" else float(ref[naxes])
        if (final is None) != (ref_final is None) or (
            final is not None and abs(final - ref_final) > FINAL_DEATH_TOL
        ):
            return f"{label}: final death {final} != reference {ref_final}"
        if revivals != int(ref[naxes + 1]):
            return f"{label}: revivals {revivals} != reference {ref[naxes + 1]}"
        if abs(integral - float(ref[naxes + 2])) > INTEGRAL_TOL:
            return f"{label}: integral {integral} != reference {ref[naxes + 2]}"
        return None


class VerifyFull:
    """`verify --level full`; the seed has no input to vary here."""

    name = "verify_full"

    def __init__(self, seed, tiny, work):
        self.argv = ["verify", "--level", "full"] + (["--fast"] if tiny else [])

    def ops(self):
        return [(self.name, self.argv)]

    def check(self, _label, rc, stdout):
        """(attempted, failed, problems); one operation per check line."""
        lines = stdout.splitlines()
        checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
        problems = [ln for ln in checks if ln.startswith("FAIL ")]
        summary = f"{len(checks) - len(problems)}/{len(checks)} checks passed"
        attempted = max(1, len(checks))
        if not checks or summary not in lines:
            return attempted, attempted, [f"verify: no {summary!r} line, exit code {rc}"]
        if rc != 0 and not problems:
            return attempted, attempted, [f"verify: exit code {rc} with every check passing"]
        return attempted, len(problems), problems


def make(name, seed, tiny, work):
    if name == "presets":
        return Presets(seed, tiny, work / name)
    if name == "sweep_death":
        return Sweep(
            name, {"alpha1": (0.5, 5.0, 20), "gamma": (0.1, 2.0, 10)},
            {"nbar": 0.2}, "sweep_death.csv", seed, tiny, work / name,
        )
    if name == "sweep_smooth":
        return Sweep(
            name, {"alpha1": (1.0, 3.0, 10), "gamma": (0.2, 0.6, 5)},
            {"delta1": 2, "nbar": 0, "num_points": 20001},
            "sweep_smooth.csv", seed, tiny, work / name,
        )
    if name == "verify_full":
        return VerifyFull(seed, tiny, work / name)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("presets", "sweep_death", "sweep_smooth", "verify_full")
