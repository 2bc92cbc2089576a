"""Small shared utilities: phase timers and summary statistics."""

from repro.util.timer import PhaseTimer, Timing
from repro.util.stats import Summary, summarize, relative_spread

__all__ = [
    "PhaseTimer",
    "Timing",
    "Summary",
    "summarize",
    "relative_spread",
]
