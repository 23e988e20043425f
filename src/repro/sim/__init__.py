"""Discrete-event simulation kernel.

Time is measured in nanoseconds (floats).  The kernel is deliberately
small: an event heap (:class:`~repro.sim.engine.Engine`), generator-based
processes (:mod:`repro.sim.process`), FIFO resources with queueing
(:mod:`repro.sim.resource`), and reproducible named random streams
(:mod:`repro.sim.rng`).
"""

from repro.sim.engine import Engine, Event
from repro.sim.process import Process, Signal, Timeout
from repro.sim.resource import FifoQueue, Resource
from repro.sim.rng import RngStreams

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Signal",
    "Timeout",
    "Resource",
    "FifoQueue",
    "RngStreams",
]
