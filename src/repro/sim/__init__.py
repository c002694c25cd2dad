"""Simulated execution substrate: clock, network, fluctuation, workload.

This package stands in for the paper's physical testbed (PDAs and laptops on
unreliable wireless links).  See DESIGN.md §2 for the substitution argument:
the framework interacts with the platform only through monitors and
effectors, and both operate identically over this substrate.
"""

from repro.sim.clock import PeriodicTask, ScheduledEvent, SimClock
from repro.sim.fluctuation import (
    DisconnectionProcess, FluctuationProcess, RandomWalkFluctuation,
    StepChange,
)
from repro.sim.network import NetworkLink, NetworkStats, SimulatedNetwork
from repro.sim.workload import (
    InteractionRecord, InteractionWorkload, empirical_frequencies,
    generate_trace,
)

__all__ = [
    "DisconnectionProcess",
    "FluctuationProcess",
    "InteractionRecord",
    "InteractionWorkload",
    "NetworkLink",
    "NetworkStats",
    "PeriodicTask",
    "RandomWalkFluctuation",
    "ScheduledEvent",
    "SimClock",
    "SimulatedNetwork",
    "StepChange",
    "empirical_frequencies",
    "generate_trace",
]
