"""Memory substrate: SRAM memory pools and footprint models.

The memory pools load with the package; the footprint models load on
first access.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.mem.mempool import MemoryPool, MemoryPoolConfig

if TYPE_CHECKING:
    from repro.mem.footprint import FootprintModel, SharingReport, sharing

__all__ = [
    "MemoryPool",
    "MemoryPoolConfig",
    "FootprintModel",
    "SharingReport",
    "sharing",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".footprint": ("FootprintModel", "SharingReport", "sharing"),
})
