"""CPU substrate: cores, caches, TLBs, coherence, and microarch models.

The analytic core model loads with the package; the cache, TLB and
hierarchy models load on first access.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.cpu.core_model import (
    SCALEOUT_CORE,
    SERVERCLASS_CORE,
    UMANYCORE_CORE,
    CoreConfig,
    CoreModel,
    SegmentProfile,
)

if TYPE_CHECKING:
    from repro.cpu.cache import CacheStats, SetAssociativeCache
    from repro.cpu.hierarchy import CacheHierarchy, HierarchyConfig
    from repro.cpu.tlb import Tlb

__all__ = [
    "SetAssociativeCache",
    "CacheStats",
    "Tlb",
    "CacheHierarchy",
    "HierarchyConfig",
    "CoreConfig",
    "CoreModel",
    "SegmentProfile",
    "UMANYCORE_CORE",
    "SCALEOUT_CORE",
    "SERVERCLASS_CORE",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".cache": ("CacheStats", "SetAssociativeCache"),
    ".hierarchy": ("CacheHierarchy", "HierarchyConfig"),
    ".tlb": ("Tlb",),
})
