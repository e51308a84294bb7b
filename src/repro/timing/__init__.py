"""Virtual time, calibrated costs, noise, and contention modelling."""

from .clock import NSEC_PER_MSEC, NSEC_PER_SEC, NSEC_PER_USEC, SimClock, Stopwatch
from .contention import contention_group
from .costs import CostModel, CostParams
from .noise import NoiseModel

__all__ = [
    "SimClock",
    "Stopwatch",
    "CostModel",
    "CostParams",
    "NoiseModel",
    "contention_group",
    "NSEC_PER_USEC",
    "NSEC_PER_MSEC",
    "NSEC_PER_SEC",
]
