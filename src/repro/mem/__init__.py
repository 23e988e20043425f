"""Memory substrate: SRAM memory pools and footprint models."""

from repro.mem.footprint import FootprintModel, SharingReport, sharing
from repro.mem.mempool import MemoryPool, MemoryPoolConfig

__all__ = [
    "MemoryPool",
    "MemoryPoolConfig",
    "FootprintModel",
    "SharingReport",
    "sharing",
]
