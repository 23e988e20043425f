"""NIC models: village L-NIC / R-NIC and the package top-level NIC.

Section 4.1: the L-NIC runs on the lossless on-package network (no
retransmission/congestion machinery, back-pressure only), while the R-NIC
talks to the lossy outside world and pays transport overheads.  Section
4.2/4.3: the top-level NIC keeps a ServiceMap (service -> villages with an
instance) and dispatches arriving requests round-robin in hardware; when a
village RQ is full the NIC buffers, and when its buffer is exhausted it
rejects the request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Engine
from repro.sim.resource import Resource


@dataclass(frozen=True)
class NicConfig:
    """Per-NIC processing and serialization parameters.

    ``rpc_processing_ns`` is the RPC-layer cost (header parsing, payload
    de-serialization, dispatch): ~hardware cost for uManycore's in-NIC
    RPC processing, ~software cost for the baselines.
    """

    rpc_processing_ns: float = 50.0
    bytes_per_ns: float = 100.0        # serialization bandwidth
    transport_overhead_ns: float = 0.0  # R-NIC retransmit/flow-control logic


class LNic:
    """Lossless on-package NIC: serialization + fixed RPC processing
    (+ the config's transport overhead, which is 0 for an L-NIC)."""

    def __init__(self, engine: Engine, config: Optional[NicConfig] = None,
                 name: str = ""):
        self.engine = engine
        self.config = config or NicConfig()
        self.name = name
        self._port = Resource(engine, capacity=1, name=f"{name}.port")
        self.messages = 0
        #: Fault state: a failed NIC blackholes everything handed to it
        #: (its ``done`` callbacks never fire); callers recover via the
        #: RPC layer's timeout/retry.
        self.failed = False
        self.dropped = 0

    def fail(self) -> None:
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def process(self, size_bytes: int, done: Callable[[], None],
                rec=None) -> None:
        """Pass one message through the NIC; ``done`` on completion."""
        if self.failed:
            self.dropped += 1
            check = self.engine.check
            if check.enabled:
                check.nic_drop(self)
            return
        self.messages += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            # The span covers port queueing + service.
            name = self.name or "nic"
            done = tracer.span_until_done(self.engine, done, "nic_dispatch",
                                          name, rec=rec, track=name)
        cfg = self.config
        service = (cfg.rpc_processing_ns + cfg.transport_overhead_ns
                   + size_bytes / cfg.bytes_per_ns)
        # A lambda of this module rather than ``done`` itself, so port
        # completions are owned by (and profile as) the NIC layer.
        self._port.acquire(service, lambda: done())


class RNic(LNic):
    """Lossy-network NIC: the L-NIC datapath, with a transport overhead
    (retransmission logic, flow and congestion control bookkeeping)."""

    def __init__(self, engine: Engine, config: Optional[NicConfig] = None,
                 name: str = ""):
        config = config or NicConfig(transport_overhead_ns=200.0)
        super().__init__(engine, config, name)


class TopLevelNic:
    """Package NIC with the hardware ServiceMap dispatcher.

    ``register_instance`` is called by system software whenever a service
    instance boots in a village; ``pick_village`` implements the
    round-robin hardware dispatch.  ``buffer_capacity`` bounds the
    overflow queue used when village RQs are full.
    """

    def __init__(self, engine: Engine, config: Optional[NicConfig] = None,
                 buffer_capacity: int = 256, name: str = "top-nic",
                 dispatch: str = "rr", rng=None):
        from repro.sched.dispatch import get_dispatch_policy

        self._dispatch_policy = get_dispatch_policy(dispatch)
        if dispatch == "random" and rng is None:
            raise ValueError("random dispatch needs an rng")
        self.engine = engine
        self.config = config or NicConfig()
        self.name = name
        self.dispatch = dispatch
        self.rng = rng
        #: Village-id -> RQ occupancy hook, wired by the server once its
        #: villages exist; occupancy-aware dispatch policies need it and
        #: pick_village raises if one runs without it.
        self.occupancy_of = None
        self.buffer_capacity = buffer_capacity
        self._service_map: Dict[str, List[int]] = {}
        self._buffer: deque = deque()
        self._port = Resource(engine, capacity=2, name=f"{name}.port")
        self.dispatched = 0
        self.rejected = 0
        #: ServiceMap health bits: villages the health checker marked
        #: down.  ``pick_village`` skips them; the set stays empty in
        #: fault-free runs so the healthy dispatch path is unchanged.
        self._down: set = set()
        self.health_marks = 0

    def register_instance(self, service: str, village: int) -> None:
        villages = self._service_map.setdefault(service, [])
        if village not in villages:
            villages.append(village)

    def deregister_instance(self, service: str, village: int) -> None:
        villages = self._service_map.get(service, [])
        if village in villages:
            villages.remove(village)

    def villages_for(self, service: str) -> List[int]:
        return list(self._service_map.get(service, []))

    # ---- ServiceMap health checking (fault detection)

    def mark_village_down(self, village: int) -> None:
        """Health checker verdict: stop dispatching to this village."""
        self._down.add(village)
        self.health_marks += 1

    def mark_village_up(self, village: int) -> None:
        self._down.discard(village)

    def village_healthy(self, village: int) -> bool:
        return village not in self._down

    def pick_village(self, service: str,
                     exclude: Optional[int] = None) -> int:
        """Pick a hosting village via the configured dispatch policy
        (round-robin by default — the Section 4.2 hardware).

        Villages marked down by the health checker are skipped; raises
        KeyError when no healthy instance remains.  ``exclude`` biases
        hedged requests away from the primary attempt's village when an
        alternative exists.
        """
        villages = self._service_map.get(service)
        if not villages:
            raise KeyError(f"no instance of service {service!r} registered")
        if self._down:
            healthy = [v for v in villages if v not in self._down]
            if not healthy:
                raise KeyError(
                    f"no healthy instance of service {service!r}")
        else:
            healthy = villages
        if exclude is not None and len(healthy) > 1:
            candidates = [v for v in healthy if v != exclude] or healthy
        else:
            candidates = healthy
        self.dispatched += 1
        policy = self._dispatch_policy
        if policy.needs_occupancy and self.occupancy_of is None:
            raise RuntimeError(
                f"dispatch policy {policy.name!r} needs the NIC "
                f"occupancy_of hook (wired by the server)")
        village = policy.choose(self, service, villages, candidates)
        check = self.engine.check
        if check.enabled:
            check.nic_dispatch(self, service, village)
        return village

    def process(self, size_bytes: int, done: Callable[[], None],
                rec=None) -> None:
        """NIC datapath cost for one external message."""
        tracer = self.engine.tracer
        if tracer.enabled:
            done = tracer.span_until_done(self.engine, done, "nic_dispatch",
                                          self.name, rec=rec,
                                          track=self.name)
        cfg = self.config
        service = cfg.rpc_processing_ns + size_bytes / cfg.bytes_per_ns
        self._port.acquire(service, lambda: done())

    # ---- overflow buffering (Section 4.3: full RQ -> NIC buffer -> reject)

    def try_buffer(self, item) -> bool:
        """Buffer a request that found its RQ full; False = rejected."""
        if len(self._buffer) >= self.buffer_capacity:
            self.rejected += 1
            check = self.engine.check
            if check.enabled:
                check.nic_reject(self)
            return False
        self._buffer.append(item)
        return True

    def drain_buffered(self):
        """Pop the oldest buffered request (None when empty)."""
        return self._buffer.popleft() if self._buffer else None

    @property
    def buffered(self) -> int:
        return len(self._buffer)
