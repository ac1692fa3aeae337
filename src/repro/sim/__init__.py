"""Discrete-event simulation substrate for the DistScroll reproduction."""

from repro.sim.channels import CHANNELS, EVENTS, FAULT_RECOVERY, FAULTS
from repro.sim.kernel import (
    Event,
    PeriodicTask,
    SimulationError,
    Simulator,
)
from repro.sim.trace import TraceChannel, Tracer

__all__ = [
    "CHANNELS",
    "EVENTS",
    "Event",
    "FAULTS",
    "FAULT_RECOVERY",
    "PeriodicTask",
    "SimulationError",
    "Simulator",
    "TraceChannel",
    "Tracer",
]
