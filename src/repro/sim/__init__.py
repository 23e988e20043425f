"""Discrete-event simulation kernel.

Time is measured in nanoseconds (floats).  The kernel is deliberately
small: an event heap (:class:`~repro.sim.engine.Engine`), FIFO resources
with queueing (:mod:`repro.sim.resource`), and reproducible named random
streams with direct scalar draws on them (:mod:`repro.sim.rng`).
"""

from repro.sim.engine import Engine, Event
from repro.sim.resource import Resource
from repro.sim.rng import RngStreams, ScalarDraws

__all__ = [
    "Engine",
    "Event",
    "Resource",
    "RngStreams",
    "ScalarDraws",
]
