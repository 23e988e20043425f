"""Per-cluster SRAM memory pool with service snapshots (Section 4.1).

The pool stores read-mostly state — most importantly service *snapshots*
(initialized container/runtime/library images, 10s of MB).  Creating a new
service instance from a snapshot only needs a bulk read from the pool
(L-MEM engine), cutting instance boot from >300 ms to <10 ms [18].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim.engine import Engine
from repro.sim.resource import Resource

MB = 1024 * 1024


@dataclass(frozen=True)
class MemoryPoolConfig:
    """Capacity and bulk-transfer bandwidth of one pool chiplet."""

    capacity_mb: float = 256.0
    read_bandwidth_bytes_per_ns: float = 64.0    # L-MEM bulk engine
    access_latency_ns: float = 20.0              # fixed SRAM access cost
    cold_boot_ms: float = 300.0                  # boot without a snapshot
    snapshot_boot_overhead_ms: float = 2.0       # non-copy part of a warm boot


class MemoryPool:
    """SRAM chiplet shared by the villages of one cluster."""

    def __init__(self, engine: Engine, config: Optional[MemoryPoolConfig] = None,
                 name: str = ""):
        self.engine = engine
        self.config = config or MemoryPoolConfig()
        self.name = name
        self._snapshots: Dict[str, float] = {}   # service -> size bytes
        self._used_bytes = 0.0
        # Bulk reads serialize on the L-MEM engine.
        self._lmem = Resource(engine, capacity=1, name=f"{name}.L-MEM")
        self.snapshot_boots = 0
        self.cold_boots = 0

    @property
    def free_bytes(self) -> float:
        return self.config.capacity_mb * MB - self._used_bytes

    def has_snapshot(self, service: str) -> bool:
        return service in self._snapshots

    def store_snapshot(self, service: str, size_bytes: float) -> bool:
        """Record a snapshot; False when the pool lacks capacity."""
        if size_bytes <= 0:
            raise ValueError("snapshot size must be positive")
        if service in self._snapshots:
            return True
        if size_bytes > self.free_bytes:
            return False
        self._snapshots[service] = size_bytes
        self._used_bytes += size_bytes
        return True

    def evict_snapshot(self, service: str) -> None:
        size = self._snapshots.pop(service, 0.0)
        self._used_bytes -= size

    def boot_instance(self, service: str, done: Callable[[float], None]) -> None:
        """Boot a service instance; calls ``done(boot_time_ns)``.

        With a snapshot: pool read (bandwidth-limited, serialized on the
        L-MEM engine) plus a small fixed overhead.  Without: full cold
        boot (~300 ms), executed off-pool.
        """
        cfg = self.config
        size = self._snapshots.get(service)
        if size is None:
            self.cold_boots += 1
            boot_ns = cfg.cold_boot_ms * 1e6
            self.engine.schedule(boot_ns, done, boot_ns)
            return
        self.snapshot_boots += 1
        copy_ns = cfg.access_latency_ns + size / cfg.read_bandwidth_bytes_per_ns
        overhead_ns = cfg.snapshot_boot_overhead_ms * 1e6
        start = self.engine.now
        self._lmem.acquire(
            copy_ns,
            lambda: self.engine.schedule(
                overhead_ns, lambda: done(self.engine.now - start)))
