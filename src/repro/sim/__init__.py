"""Discrete-event simulation substrate: engine, context, links, stats, RNG."""

from repro.sim.context import SimContext, StatsSink
from repro.sim.engine import (
    EventHandle,
    Process,
    Simulator,
    Timeline,
    process_events_executed,
)
from repro.sim.link import DuplexLink, Link
from repro.sim.rng import make_rng, spawn
from repro.sim.stats import (
    LatencyRecorder,
    MctRecorder,
    Summary,
    ideal_mct_ns,
    throughput_mrps,
)

__all__ = [
    "DuplexLink",
    "EventHandle",
    "LatencyRecorder",
    "Link",
    "MctRecorder",
    "Process",
    "SimContext",
    "Simulator",
    "StatsSink",
    "Summary",
    "Timeline",
    "ideal_mct_ns",
    "make_rng",
    "process_events_executed",
    "spawn",
    "throughput_mrps",
]
