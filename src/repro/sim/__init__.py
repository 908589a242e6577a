"""Discrete-event simulation substrate.

This subpackage is the simulator the paper's authors built in-house: a
deterministic event heap (:mod:`repro.sim.engine` over the queue in
:mod:`repro.sim.wheel`), the priority classes that break same-time ties
(:mod:`repro.sim.events`), named seeded random streams
(:mod:`repro.sim.rng`), and the per-second bucket counter that models
``MaxProbesPerSecond`` capacity limits (:mod:`repro.sim.windows`).

The kernel is intentionally tiny and dependency-free; everything above it
(the GUESS protocol, baselines, experiments) schedules plain callbacks.
"""

from repro.sim.engine import Engine, Simulator, TraceHasher
from repro.sim.events import EventPriority
from repro.sim.rng import RngRegistry
from repro.sim.windows import BucketedRateLimiter

__all__ = [
    "Simulator",
    "Engine",
    "TraceHasher",
    "EventPriority",
    "RngRegistry",
    "BucketedRateLimiter",
]
