"""DRAM channel/bank timing model (the DRAMSim2 stand-in).

Table 2: 80 GB per server, 4 channels x 8 banks at 1 GHz DDR, 8 memory
controllers at 102.4 GB/s each.  We model the essential timing behaviour:
accesses queue per channel, banks keep an open row (row hits are fast,
row conflicts pay precharge+activate), and bandwidth is bounded by the
channel resources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.resource import Resource


@dataclass(frozen=True)
class DramConfig:
    """Geometry and timing of the per-server memory system."""

    channels: int = 4
    banks_per_channel: int = 8
    row_bytes: int = 8192
    row_hit_ns: float = 15.0        # CAS only
    row_miss_ns: float = 45.0       # precharge + activate + CAS
    line_bytes: int = 64

    def __post_init__(self):
        if self.channels < 1 or self.banks_per_channel < 1:
            raise ValueError("channels and banks must be >= 1")


class Dram:
    """Open-row DRAM with per-channel queueing."""

    def __init__(self, engine: Engine, config: Optional[DramConfig] = None,
                 name: str = "dram"):
        self.engine = engine
        self.config = config or DramConfig()
        self.name = name
        self._channels = [Resource(engine, capacity=1, name=f"{name}.ch{i}")
                          for i in range(self.config.channels)]
        # open row per (channel, bank); None = closed
        self._open_rows = [[None] * self.config.banks_per_channel
                           for __ in range(self.config.channels)]
        self.row_hits = 0
        self.row_misses = 0

    def _map(self, addr: int):
        """Address interleaving: line -> channel, then bank, then row."""
        line = addr // self.config.line_bytes
        channel = line % self.config.channels
        bank = (line // self.config.channels) % self.config.banks_per_channel
        row = addr // self.config.row_bytes
        return channel, bank, row

    def access(self, addr: int, done: Callable[[float], None]) -> None:
        """Read one line; ``done(latency_ns)`` fires at completion."""
        channel, bank, row = self._map(addr)
        open_row = self._open_rows[channel][bank]
        if open_row == row:
            self.row_hits += 1
            service = self.config.row_hit_ns
        else:
            self.row_misses += 1
            service = self.config.row_miss_ns
            self._open_rows[channel][bank] = row
        start = self.engine.now
        self._channels[channel].acquire(
            service, lambda: done(self.engine.now - start))

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_misses

    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0
