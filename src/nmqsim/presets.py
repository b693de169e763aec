"""Canonical parameter presets.

Nine named scenarios spanning the qualitative regimes of the model:
detuned and resonant underdamped oscillations, critically slow exchange,
the memoryless strong-damping limit, and their finite-temperature
counterparts.  All use omega1 = omega2 = 10 and symmetric couplings.
"""

from dataclasses import dataclass

from .model import ModelParams
from .propagator import TimeGrid

__all__ = ["Preset", "PRESETS", "default_grid", "preset_params"]

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

    def params(self) -> ModelParams:
        return ModelParams.from_detunings(
            omega1=10.0,
            delta1=self.delta,
            delta2=self.delta,
            alpha1=self.alpha,
            alpha2=self.alpha,
            gamma=self.gamma,
            nbar=self.nbar,
        )


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


def preset_params(name: str) -> ModelParams:
    try:
        return PRESETS[name].params()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None


def default_grid() -> TimeGrid:
    return TimeGrid(DEFAULT_T_END, DEFAULT_NUM_POINTS)
