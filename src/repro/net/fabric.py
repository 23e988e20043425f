"""Inter-server fabric and the remote storage backend.

Table 2: inter-server links are 1 us round trip at 200 GB/s.  Storage
requests leave the package through the R-NIC path, cross the fabric, and
are served by a storage tier modelled as a latency distribution (the
paper's workloads block on such accesses for most of their lifetime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sim.engine import Engine
from repro.sim.resource import Resource


@dataclass(frozen=True)
class FabricConfig:
    """Datacenter-network parameters (Table 2)."""

    one_way_latency_ns: float = 500.0        # 1 us round trip
    bytes_per_ns: float = 200.0              # 200 GB/s
    storage_mean_ns: float = 100_000.0        # mean storage service time
    storage_cv: float = 1.2                  # lognormal variability


class InterServerFabric:
    """Star fabric: per-server egress links + fixed propagation delay."""

    def __init__(self, engine: Engine, n_servers: int,
                 config: Optional[FabricConfig] = None):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        self.engine = engine
        self.config = config or FabricConfig()
        self.n_servers = n_servers
        self._egress = [Resource(engine, capacity=1, name=f"srv{i}.egress")
                        for i in range(n_servers)]
        self.messages = 0

    def send(self, src_server: int, dst_server: int, size_bytes: int,
             done: Callable[[], None], rec=None) -> None:
        """Deliver a message between servers (or to the storage tier)."""
        self.messages += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            done = tracer.span_until_done(
                self.engine, done, "fabric", f"s{src_server}->s{dst_server}",
                rec=rec, track="fabric", bytes=size_bytes)

        cfg = self.config
        serialize = size_bytes / cfg.bytes_per_ns
        self._egress[src_server].acquire(
            serialize,
            lambda: self.engine.schedule(cfg.one_way_latency_ns, done))


class StorageBackend:
    """Remote storage tier: lognormal service latency, ample parallelism.

    Storage is shared infrastructure identical across the compared
    architectures, so it is modelled as a latency distribution rather
    than a contended resource — its job in the evaluation is to *block*
    requests, exposing scheduling/context-switch overheads.
    """

    def __init__(self, engine: Engine, rng: np.random.Generator,
                 config: Optional[FabricConfig] = None):
        self.engine = engine
        self.rng = rng
        self.config = config or FabricConfig()
        cv = self.config.storage_cv
        self._sigma2 = math.log(1.0 + cv * cv)
        self._mu = math.log(self.config.storage_mean_ns) - self._sigma2 / 2.0
        self.accesses = 0

    def sample_latency_ns(self) -> float:
        return float(self.rng.lognormal(self._mu, math.sqrt(self._sigma2)))

    def access(self, done: Callable[[float], None]) -> None:
        """Serve one storage request; ``done(latency_ns)`` at completion."""
        self.accesses += 1
        latency = self.sample_latency_ns()
        self.engine.schedule(latency, done, latency)
