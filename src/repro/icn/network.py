"""Event-driven network: links as FIFO resources, contention as queueing.

Each hop costs the router+wire latency (Table 2: 5 cycles/hop) plus the
message's serialization time on the link; a busy link queues messages.
``contention=False`` turns links into pure delays — the normalization
baseline of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.icn.topology import NoPathError, Topology
from repro.sim.engine import Engine
from repro.sim.resource import Resource


@dataclass(frozen=True)
class NetworkConfig:
    """Link timing parameters.

    ``hop_cycles`` and ``freq_ghz`` follow Table 2 (5 cycles/hop at 2 GHz);
    ``link_bytes_per_ns`` models on-package link width (~128 B/ns).
    """

    hop_cycles: float = 5.0
    freq_ghz: float = 2.0
    link_bytes_per_ns: float = 128.0
    contention: bool = True

    @property
    def hop_latency_ns(self) -> float:
        return self.hop_cycles / self.freq_ghz

    def serialization_ns(self, size_bytes: int) -> float:
        return size_bytes / self.link_bytes_per_ns


class _Transit:
    """One in-flight message walking a compiled route's link resources.

    The link hop is the unit of work: each hop is one scheduled
    :meth:`hop_done` event and one Python frame, which drives the link
    ``Resource``s directly instead of going through
    ``Resource.acquire``/``_finish``.  Link resources are therefore
    driven only by transits — their queues hold ``(arrival, hop_time,
    transit)`` waiters — while their counters (``busy``,
    ``jobs_served``, ``busy_time``, ``wait_time_total``,
    ``max_queue_len``) and invariant-checker hooks evolve exactly as
    ``Resource`` would update them.
    """

    __slots__ = ("net", "route", "hop_time", "sent_at",
                 "on_delivered", "on_dropped", "idx")

    def __init__(self, net: "Network", route: "_Route", hop_time: float,
                 on_delivered: Callable[[], None],
                 on_dropped: Optional[Callable[[], None]]):
        self.net = net
        self.route = route
        self.hop_time = hop_time
        self.sent_at = net.engine.now
        self.on_delivered = on_delivered
        self.on_dropped = on_dropped
        self.idx = 0

    def hop_done(self) -> None:
        """Finish hop ``idx - 1`` and take the next one.

        Called once directly at send time (``idx == 0``: no link to
        release) and then as the event ending each hop.  The order is
        ``Resource._finish``'s: the finished link's bookkeeping, then
        the continuation (the next link's acquire, or delivery — whose
        callback may re-acquire the link just freed ahead of its queue),
        then the freed link starts its next queued waiter.
        """
        net = self.net
        engine = net.engine
        check = engine.check
        route = self.route
        i = self.idx
        if i:
            freed = route.links[i - 1]
            freed.busy -= 1
            freed.jobs_served += 1
            freed.busy_time += self.hop_time
            if check.enabled:
                check.resource_event(freed)
        else:
            freed = None

        if i >= route.n_hops:
            net._deliver(self.sent_at, self.on_delivered)
        elif net.topology._failed_links and \
                not net.topology.link_alive(*route.pairs[i]):
            # The link died while the message was queued upstream.
            net._drop(self.on_dropped, in_flight=True)
        else:
            self.idx = i + 1
            link = route.links[i]
            if link.busy < link.capacity:
                link.busy += 1
                if check.enabled:
                    check.resource_event(link)
                engine.schedule(self.hop_time, self.hop_done)
            else:
                queue = link._queue
                queue.append((engine.now, self.hop_time, self))
                if len(queue) > link.max_queue_len:
                    link.max_queue_len = len(queue)

        if freed is not None and freed._queue and freed.busy < freed.capacity:
            arrival, hop_time, waiter = freed._queue.popleft()
            freed.busy += 1
            freed.wait_time_total += engine.now - arrival
            if check.enabled:
                check.resource_event(freed)
            engine.schedule(hop_time, waiter.hop_done)


class _Route:
    """Per-path compiled hop list: link Resources resolved once.

    Holds a strong reference to the path list it was compiled from.  For
    the shared, topology-cached lists of a fault-free fabric that keeps
    the ``id(path)`` lookup key in ``Network._routes`` valid for the
    network's lifetime; degraded routes are per-message and never cached.
    """

    __slots__ = ("path", "links", "pairs", "n_hops")

    def __init__(self, net: "Network", path: list):
        self.path = path
        self.pairs = list(zip(path, path[1:]))
        self.links = [net._link(u, v) for u, v in self.pairs]
        self.n_hops = len(self.pairs)


class Network:
    """Drives messages across a topology on the event engine."""

    def __init__(self, engine: Engine, topology: Topology,
                 config: Optional[NetworkConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        self.engine = engine
        self.topology = topology
        self.config = config or NetworkConfig()
        self.rng = rng
        self._links: Dict[Tuple[str, str], Resource] = {}
        #: Compiled routes keyed by ``id(path)`` of the shared path lists
        #: the topology cache hands out (each _Route pins its path alive,
        #: so keys cannot be recycled); holds the link Resource list so
        #: the hot send path skips per-hop dict probes.
        self._routes: Dict[int, _Route] = {}
        #: Exact per-size hop times (``hop_latency_ns + serialization``),
        #: memoized so the hot path recomputes nothing — same float ops
        #: on first use, so values are bit-identical to the uncached code.
        self._hop_times: Dict[int, float] = {}
        self.messages_sent = 0
        self.hops_traversed = 0
        self.total_latency = 0.0
        #: Messages lost to failed links/partitions (blackholes).  The
        #: RPC layer's timeouts are what turns these into retries.
        self.messages_dropped = 0

    def _link(self, u: str, v: str) -> Resource:
        res = self._links.get((u, v))
        if res is None:
            res = Resource(self.engine, capacity=self.topology.link_capacity(u, v),
                           name=f"{u}->{v}")
            self._links[(u, v)] = res
        return res

    def send(self, src: str, dst: str, size_bytes: int,
             on_delivered: Callable[[], None], rec=None,
             on_dropped: Optional[Callable[[], None]] = None) -> None:
        """Route a message and call ``on_delivered`` when it arrives.

        ``rec`` optionally attributes the message's ``icn_hop`` span to a
        request's trace (ignored when tracing is off).  When no surviving
        route exists (failed links) the message blackholes:
        ``on_dropped`` fires if given, otherwise nothing does — callers
        with a delivery guarantee wrap sends in a timeout.

        Every send walks a compiled :class:`_Route` (link Resources
        resolved once) with one :class:`_Transit` object and the cached
        per-size hop time.  Fault-free paths are shared topology-cached
        lists, so their routes are memoized by ``id(path)``; while any
        link is failed the topology returns a fresh path list per call,
        so the route is compiled for this message alone and not stored.
        Either way a mid-flight link failure is caught hop-by-hop.
        """
        engine = self.engine
        topo = self.topology
        try:
            path = topo.path(src, dst, self.rng)
        except NoPathError:
            self._drop(on_dropped)
            return
        self.messages_sent += 1
        if len(path) < 2:
            engine.schedule(0.0, on_delivered)
            return
        check = engine.check
        if check.enabled:
            # Conservation ledger covers routed (multi-hop) messages:
            # every send ends in _deliver or an in-flight drop.
            check.icn_send(self)
        hop_time = self._hop_times.get(size_bytes)
        if hop_time is None:
            hop_time = self.config.hop_latency_ns + \
                self.config.serialization_ns(size_bytes)
            self._hop_times[size_bytes] = hop_time
        n_hops = len(path) - 1
        self.hops_traversed += n_hops

        if engine.tracer.enabled:
            inner = on_delivered
            name = f"{src}->{dst}"
            sent_at = engine.now

            def on_delivered() -> None:
                engine.tracer.span(
                    "icn_hop", name, sent_at, engine.now, rec=rec,
                    track="icn", hops=n_hops, bytes=size_bytes)
                inner()

        if not self.config.contention:
            engine.schedule(hop_time * n_hops, self._deliver, engine.now,
                            on_delivered)
            return

        if topo._failed_links:
            route = _Route(self, path)
        else:
            route = self._routes.get(id(path))
            if route is None:
                route = self._routes[id(path)] = _Route(self, path)
        _Transit(self, route, hop_time, on_delivered, on_dropped).hop_done()

    def send_fanout(self, sources, dst: str, size_bytes: int,
                    on_each: Callable[[], None], rec=None) -> None:
        """Send one message to ``dst`` from each source yielded by
        ``sources``, invoking ``on_each`` per delivery.

        ``sources`` is iterated lazily, so a generator whose body draws
        from an RNG interleaves those draws with each message's ECMP
        picks exactly as an equivalent ``send`` loop would — the draw
        order (and hence every downstream event) is byte-identical.
        The batch hoists the per-send constant work (hop-time lookup,
        flag slots, counter loads) out of the loop; tracing, invariant
        checking, degraded topologies and contention-free mode fall
        back to plain sends, which keeps the fast path small.
        """
        engine = self.engine
        topo = self.topology
        if (topo._failed_links or engine.tracer.enabled
                or engine.check.enabled or not self.config.contention):
            send = self.send
            for src in sources:
                send(src, dst, size_bytes, on_each, rec=rec)
            return
        hop_time = self._hop_times.get(size_bytes)
        if hop_time is None:
            hop_time = self.config.hop_latency_ns + \
                self.config.serialization_ns(size_bytes)
            self._hop_times[size_bytes] = hop_time
        path_of = topo.path
        rng = self.rng
        routes = self._routes
        schedule = engine.schedule
        sent = 0
        hops = 0
        for src in sources:
            try:
                path = path_of(src, dst, rng)
            except NoPathError:
                self._drop(None)
                continue
            sent += 1
            if len(path) < 2:
                schedule(0.0, on_each)
                continue
            hops += len(path) - 1
            route = routes.get(id(path))
            if route is None:
                route = routes[id(path)] = _Route(self, path)
            _Transit(self, route, hop_time, on_each, None).hop_done()
        # The loop is synchronous (no event runs mid-batch), so the
        # deferred counter flush is observationally identical to the
        # per-send increments.
        self.messages_sent += sent
        self.hops_traversed += hops

    def _drop(self, on_dropped: Optional[Callable[[], None]],
              in_flight: bool = False) -> None:
        """Blackhole one message (no route, or a hop died in flight)."""
        self.messages_dropped += 1
        check = self.engine.check
        if check.enabled:
            check.icn_drop(self, in_flight=in_flight)
        if on_dropped is not None:
            self.engine.schedule(0.0, on_dropped)

    def _deliver(self, sent_at: float, on_delivered: Callable[[], None]) -> None:
        self.total_latency += self.engine.now - sent_at
        check = self.engine.check
        if check.enabled:
            check.icn_deliver(self)
        on_delivered()

    def queued_messages(self) -> int:
        """Messages currently waiting on busy links (contention gauge)."""
        return sum(res.queue_length for res in self._links.values())

    @property
    def mean_latency(self) -> float:
        if self.messages_sent == 0:
            return 0.0
        return self.total_latency / self.messages_sent

    def busiest_links(self, top: int = 5):
        """(link, jobs_served) of the most-used links — contention hot spots."""
        ranked = sorted(self._links.items(), key=lambda kv: -kv[1].jobs_served)
        return [(link, res.jobs_served) for link, res in ranked[:top]]
