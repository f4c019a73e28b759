"""Discrete-event simulation kernel.

Exports the simulator, timer helpers, tracing, and statistics used by
every other subsystem in the library.
"""

from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, Event
from repro.sim.process import PeriodicTask, Timer
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.stats import (
    RateMeter,
    SummaryStats,
    TimeSeries,
    percentile,
    summarize,
)
from repro.sim.trace import TraceBus, TraceCollector, TraceRecord

__all__ = [
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "Event",
    "PeriodicTask",
    "RandomStreams",
    "RateMeter",
    "Simulator",
    "SummaryStats",
    "TimeSeries",
    "Timer",
    "TraceBus",
    "TraceCollector",
    "TraceRecord",
    "percentile",
    "summarize",
]
