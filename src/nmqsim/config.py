"""Flat key=value scenario files for the command line.

One `key = value` pair per line, `#` starts a comment.  Physical
parameters accept either detunings (delta1, delta2) or absolute
auxiliary frequencies (omega3, omega4), never both.  Sweep files may
give several values for the physical keys, either comma-separated
(`alpha1 = 0.5, 2, 5`) or as a linear range (`alpha1 = 0.5:5:10`);
the sweep runs the cross product of all listed axes.

Keys and defaults:

    preset       name of a built-in scenario (fixes all physical keys)
    omega1       qubit 1 frequency          default 10
    omega2       qubit 2 frequency          default omega1
    delta1       detuning of pair 1,3       default 0
    delta2       detuning of pair 2,4       default delta1
    omega3/4     auxiliary frequencies      alternative to deltas
    alpha1       coupling of pair 1,3       default 1
    alpha2       coupling of pair 2,4       default alpha1
    gamma        reservoir damping rate     default 0.5
    nbar         thermal occupation         default 0
    t_end        end of the time grid       default 10
    num_points   grid points                default 2001, at most GRID_CAP
    threshold    event detection threshold  default 1e-6, in (0, 1]

Both file kinds go through one reader: a scenario is a sweep of one
point, and a preset stands for the four keys it fixes.  The reader parses
every value of every physical key before it checks how many values a key
has, so a file with a bad value and a value list names the bad value
whichever command reads it.  A scenario then takes one value per key, and
a preset file none; a sweep splits the keys into axes (several values)
and fixed keys (one).  One function then checks the grid, then the
threshold, and then builds every point's parameters for both readers, so
a file with a fault in each names the same one from either command, and a
bad value in any axis is a configuration error before the first point
runs.  Plots are a switch of the ``simulate`` command line, not a key.

The preset table and the grid defaults live here too, beside the reader
that interprets them.  The nine presets are the paper's regimes: detuned
and resonant underdamped oscillations, critically slow exchange, the
memoryless strong-damping limit, and their finite-temperature
counterparts.  A preset fixes delta, alpha, gamma and nbar, and the
reader's defaults give the rest (omega1 = omega2 = 10, symmetric pairs).
``preset_params(name)`` is the parameters of the one-line file
``preset = name``, so ``simulate --preset``, preset files, ``verify`` and
the library all build a preset the same way.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .entanglement import DEFAULT_THRESHOLD
from .model import ModelParams, ParameterError
from .propagator import TimeGrid

__all__ = [
    "ConfigError", "PRESETS", "Preset", "Scenario", "SweepSpec",
    "default_grid", "parse_scenario", "parse_sweep", "preset_params",
]

SWEEP_CAP = 100_000
# largest num_points accepted; a run holds a few arrays of this length
GRID_CAP = 1_000_000

_PHYSICAL_KEYS = (
    "omega1", "omega2", "delta1", "delta2", "omega3", "omega4",
    "alpha1", "alpha2", "gamma", "nbar",
)
_GRID_KEYS = ("t_end", "num_points")
_OTHER_KEYS = ("preset", "threshold")
_ALL_KEYS = _PHYSICAL_KEYS + _GRID_KEYS + _OTHER_KEYS

# default reproduction window; wide enough to show every regime's tail
DEFAULT_T_END = 10.0
DEFAULT_NUM_POINTS = 2001


@dataclass(frozen=True)
class Preset:
    name: str
    delta: float
    alpha: float
    gamma: float
    nbar: float
    note: str


_TABLE = (
    Preset("fig2", 2.0, 2.0, 0.5, 0.0,
           "detuned, underdamped: concurrence oscillates but never reaches zero"),
    Preset("fig3", 0.0, 2.0, 0.5, 0.0,
           "resonant, underdamped: entanglement dies at instants and revives"),
    Preset("fig4", 0.0, 0.5, 0.5, 0.0,
           "slow exchange: non-oscillatory decay"),
    Preset("fig5", 0.0, 3.0, 27.0, 0.0,
           "strong damping: memoryless exponential decay, rate 1/3"),
    Preset("fig6", 0.0, 5.0, 1.0 / 3.0, 0.2,
           "warm, fast exchange: damped oscillation with sudden death"),
    Preset("fig7", 2.0, 2.0, 0.5, 0.2,
           "warm, detuned: sudden death despite detuning"),
    Preset("fig8", 0.0, 2.0, 0.5, 0.2,
           "warm, resonant: entanglement gone for good within half a period"),
    Preset("fig9", 0.0, 0.5, 1.0, 0.2,
           "warm, slow exchange: single sudden death"),
    Preset("fig10", 0.0, 3.0, 27.0, 0.2,
           "warm memoryless limit: exponential decay into sudden death"),
)

PRESETS = {p.name: p for p in _TABLE}


class ConfigError(ValueError):
    """Bad configuration; carries the offending key when there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class Scenario:
    params: ModelParams
    grid: TimeGrid
    threshold: float = DEFAULT_THRESHOLD


@dataclass(frozen=True)
class SweepSpec:
    """Cross product of value lists over the physical keys.

    Construction builds the ModelParams of every point, so an invalid
    value or combination raises ConfigError before any point runs.
    """

    axes: dict  # key -> list of float values, insertion-ordered
    fixed: dict  # key -> single float
    grid: TimeGrid
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.size() > SWEEP_CAP:
            raise ConfigError(
                f"sweep has {self.size()} points, more than the cap {SWEEP_CAP}"
            )
        combos = itertools.product(*self.axes.values())
        assignments = (dict(zip(self.axes, combo)) for combo in combos)
        points = [(a, _build_params({**self.fixed, **a})) for a in assignments]
        object.__setattr__(self, "_points", points)

    def size(self) -> int:
        return math.prod(len(values) for values in self.axes.values())

    def points(self):
        """Iterate (assignment dict, ModelParams) in deterministic order."""
        return iter(self._points)


def _parse_lines(text: str) -> dict:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}", key=key)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", key=key)
        if not value:
            raise ConfigError(f"key {key!r} has no value", key=key)
        pairs[key] = value
    return pairs


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: {text!r} is not a number", key=key) from None
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite", key=key)
    # -0.0 + 0.0 is +0.0: a "-0" spelling must resolve, and hash, like "0"
    return value + 0.0


def _parse_values(key: str, text: str) -> list:
    """A single number, a comma list, or a lo:hi:n linear range."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"key {key!r}: range syntax is lo:hi:n", key=key)
        lo = _parse_float(key, parts[0])
        hi = _parse_float(key, parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise ConfigError(f"key {key!r}: range count must be an integer", key=key) from None
        if n < 2 or hi <= lo:
            raise ConfigError(f"key {key!r}: range needs hi > lo and n >= 2", key=key)
        if not np.isfinite(hi - lo):
            raise ConfigError(f"key {key!r}: range span hi - lo overflows a float", key=key)
        # no axis may exceed the sweep cap; reject the count before building it
        if n > SWEEP_CAP:
            raise ConfigError(
                f"key {key!r}: range count {n} is more than the cap {SWEEP_CAP}", key=key
            )
        return [float(v) for v in np.linspace(lo, hi, n)]
    return [_parse_float(key, part) for part in text.split(",")]


def _check_forms(pairs: dict):
    if pairs.keys() & {"delta1", "delta2"} and pairs.keys() & {"omega3", "omega4"}:
        raise ConfigError(
            "give either detunings (delta1/delta2) or absolute frequencies "
            "(omega3/omega4), not both"
        )


def _physical_values(pairs: dict) -> dict:
    """The parsed value list of every physical key the file sets, in key order."""
    return {key: _parse_values(key, pairs[key]) for key in _PHYSICAL_KEYS if key in pairs}


def _build_params(values: dict) -> ModelParams:
    omega1 = values.get("omega1", 10.0)
    alpha1 = values.get("alpha1", 1.0)
    shared = dict(
        omega1=omega1, omega2=values.get("omega2", omega1),
        alpha1=alpha1, alpha2=values.get("alpha2", alpha1),
        gamma=values.get("gamma", 0.5), nbar=values.get("nbar", 0.0),
    )
    try:
        if "omega3" in values or "omega4" in values:
            omega3 = values.get("omega3", omega1)
            return ModelParams(**shared, omega3=omega3, omega4=values.get("omega4", omega3))
        delta1 = values.get("delta1", 0.0)
        return ModelParams.from_detunings(
            **shared, delta1=delta1, delta2=values.get("delta2", delta1)
        )
    except ParameterError as exc:
        # a field the file sets names its key; one computed from several keys
        # (omega3 = omega1 - delta1) names none
        raise ConfigError(str(exc), key=exc.field if exc.field in values else None) from None


def _build_grid(pairs: dict) -> TimeGrid:
    t_end = _parse_float("t_end", pairs["t_end"]) if "t_end" in pairs else DEFAULT_T_END
    if "num_points" in pairs:
        try:
            num_points = int(pairs["num_points"])
        except ValueError:
            raise ConfigError("key 'num_points' must be an integer", key="num_points") from None
    else:
        num_points = DEFAULT_NUM_POINTS
    if num_points < 2:
        raise ConfigError(f"num_points {num_points} is less than 2", key="num_points")
    if num_points > GRID_CAP:
        raise ConfigError(
            f"num_points {num_points} is more than the cap {GRID_CAP}", key="num_points"
        )
    try:
        return TimeGrid(t_end, num_points)
    except ValueError as exc:
        # with a valid count, only the end time can be at fault
        raise ConfigError(str(exc), key="t_end") from None


def _threshold(pairs: dict) -> float:
    value = _parse_float("threshold", pairs.get("threshold", str(DEFAULT_THRESHOLD)))
    # the revival level sqrt(threshold) must not lie below the death level
    if not 0.0 < value <= 1.0:
        raise ConfigError("key 'threshold' must lie in (0, 1]", key="threshold")
    return value


def _sweep_spec(pairs: dict, values: dict) -> SweepSpec:
    """The grid, then the threshold, then every point's parameters, for both readers."""
    return SweepSpec(
        axes={key: got for key, got in values.items() if len(got) > 1},
        fixed={key: got[0] for key, got in values.items() if len(got) == 1},
        grid=_build_grid(pairs),
        threshold=_threshold(pairs),
    )


def parse_scenario(text: str) -> Scenario:
    """Parse a single-run configuration: a sweep of one point."""
    pairs = _parse_lines(text)
    _check_forms(pairs)
    if "preset" in pairs:
        name = pairs["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}", key="preset")
        clash = [k for k in _PHYSICAL_KEYS if k in pairs]
        if clash:
            raise ConfigError(
                f"preset fixes the physical parameters; remove {clash[0]!r}", key=clash[0]
            )
        p = PRESETS[name]  # a preset stands for the four keys it fixes
        values = {"delta1": [p.delta], "alpha1": [p.alpha], "gamma": [p.gamma], "nbar": [p.nbar]}
    else:
        values = _physical_values(pairs)
        for key, got in values.items():
            if len(got) != 1:
                raise ConfigError(
                    f"key {key!r}: a single run takes one value, not {len(got)}", key=key
                )
    spec = _sweep_spec(pairs, values)
    ((_, params),) = spec.points()
    return Scenario(params=params, grid=spec.grid, threshold=spec.threshold)


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep configuration; physical keys may carry value lists."""
    pairs = _parse_lines(text)
    if "preset" in pairs:
        raise ConfigError("sweeps take explicit parameters, not presets", key="preset")
    _check_forms(pairs)
    return _sweep_spec(pairs, _physical_values(pairs))


def preset_params(name: str) -> ModelParams:
    """The parameters of the scenario file ``preset = name``."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return parse_scenario(f"preset = {name}\n").params


def default_grid() -> TimeGrid:
    return TimeGrid(DEFAULT_T_END, DEFAULT_NUM_POINTS)
