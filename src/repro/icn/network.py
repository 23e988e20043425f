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

from repro.icn.topology import NoPathError, Topology, Unroutable, pick_path
from repro.sim.engine import Engine
from repro.sim.resource import Resource
from repro.sim.rng import ScalarDraws


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


class _Link(Resource):
    """One directed ICN link: a FIFO ``Resource`` that knows its
    ``edge`` ``(u, v)``, which the mid-flight failure check looks up."""

    __slots__ = ("edge",)

    def __init__(self, engine: Engine, u: str, v: str, capacity: int):
        super().__init__(engine, capacity=capacity, name=f"{u}->{v}")
        self.edge = (u, v)


class _Transit:
    """One in-flight message walking a tuple of link resources.

    The link hop is the unit of work: each hop is one scheduled
    :meth:`hop_done` event and one Python frame, which drives the link
    ``Resource``s directly instead of going through
    ``Resource.acquire``/``_finish``, and delivers the message itself
    after the last hop.  Link resources are therefore driven only by
    transits — their queues hold ``(arrival, hop_time, transit)``
    waiters, counted in ``Network._queued`` — while their counters
    (``busy``, ``jobs_served``, ``busy_time``, ``wait_time_total``,
    ``max_queue_len``) and invariant-checker hooks evolve exactly as
    ``Resource`` would update them.
    """

    __slots__ = ("net", "links", "n_hops", "hop_time", "sent_at",
                 "on_delivered", "on_dropped", "idx")

    def __init__(self, net: "Network", links: tuple, hop_time: float,
                 on_delivered: Callable[[], None],
                 on_dropped: Optional[Callable[[], None]]):
        self.net = net
        self.links = links
        self.n_hops = len(links)
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
        links = self.links
        i = self.idx
        if i:
            freed = links[i - 1]
            freed.busy -= 1
            freed.jobs_served += 1
            freed.busy_time += self.hop_time
            if check.enabled:
                check.resource_event(freed)
        else:
            freed = None

        if i >= self.n_hops:
            # Delivery, as ``Network._deliver`` does it.
            net.total_latency += engine.now - self.sent_at
            if check.enabled:
                check.icn_deliver(net)
            self.on_delivered()
        else:
            link = links[i]
            topo = net.topology
            if topo._failed_links and not topo.link_alive(*link.edge):
                # The link died while the message was queued upstream.
                net._drop(self.on_dropped, in_flight=True)
            else:
                self.idx = i + 1
                if link.busy < link.capacity:
                    link.busy += 1
                    if check.enabled:
                        check.resource_event(link)
                    engine.schedule(self.hop_time, self.hop_done)
                else:
                    link._wait((engine.now, self.hop_time, self))
                    net._queued += 1

        if freed is not None and freed._queue and freed.busy < freed.capacity:
            arrival, hop_time, waiter = freed._queue.popleft()
            net._queued -= 1
            freed.busy += 1
            freed.wait_time_total += engine.now - arrival
            if check.enabled:
                check.resource_event(freed)
            engine.schedule(hop_time, waiter.hop_done)


class _EcmpPair:
    """Per-stage link tables of one multi-path route.

    ``head``/``tail`` are the fixed links before the first and after
    the last stage, ``first[k]`` the link into stage 0's node ``k``,
    ``mids[j][a][b]`` the link from stage ``j``'s node ``a`` to stage
    ``j + 1``'s node ``b``, and ``last[k]`` the link out of the final
    stage's node ``k``.  :meth:`links` indexes them with the message's
    own draws — one :meth:`~repro.sim.rng.ScalarDraws.below` per stage,
    in stage order, each equal to the ``rng.integers(width)`` that
    :func:`~repro.icn.topology.draw_path` makes — so no per-path object
    exists and every RNG stream is unchanged.

    A fabric-node pair's core is compiled once (:meth:`compile`); each
    endpoint pair on those two nodes holds a :meth:`joined` copy that
    shares the core's stage tables and adds its own attachment links
    to ``head`` and ``tail``.
    """

    __slots__ = ("head", "widths", "first", "mids", "last", "tail")

    def __init__(self, head: tuple, widths: tuple, first: tuple,
                 mids: tuple, last: tuple, tail: tuple):
        self.head = head
        self.widths = widths
        self.first = first
        self.mids = mids
        self.last = last
        self.tail = tail

    @classmethod
    def compile(cls, net: "Network", head: list, stages: list,
                tail: list) -> "_EcmpPair":
        """The tables of the topology's ``(head, stages, tail)`` plan
        (:meth:`Topology._route_plan`); ``first`` and ``mids`` are the
        network's shared stage tables (:meth:`Network._stage_table`)."""
        link = net._link
        table = net._stage_table
        return cls(_chain(link, head),
                   tuple(len(stage) for stage in stages),
                   table(head[-1:], stages[0])[0],
                   tuple(table(cur, nxt)
                         for cur, nxt in zip(stages, stages[1:])),
                   tuple(link(n, tail[0]) for n in stages[-1]),
                   _chain(link, tail))

    def joined(self, head: tuple, tail: tuple) -> "_EcmpPair":
        """This route with ``head`` links before it and ``tail`` after."""
        return _EcmpPair(head + self.head, self.widths, self.first,
                         self.mids, self.last, self.tail + tail)

    def links(self, draws: Optional[ScalarDraws]) -> tuple:
        """One message's links, from its own per-stage draws."""
        widths = self.widths
        if draws is None:
            ks = [0] * len(widths)
        else:
            below = draws.below
            # Unrolled for the two shapes that exist (leaf-spine intra-
            # and inter-pod); the generic tail keeps any plan correct.
            if len(widths) == 3:
                k0 = below(widths[0])
                k1 = below(widths[1])
                k2 = below(widths[2])
                mid0, mid1 = self.mids
                return self.head + (self.first[k0], mid0[k0][k1],
                                    mid1[k1][k2], self.last[k2]) + self.tail
            if len(widths) == 1:
                k = below(widths[0])
                return self.head + (self.first[k], self.last[k]) + self.tail
            ks = [below(w) for w in widths]
        return self.at(ks)

    def at(self, ks) -> tuple:
        """The links of the path that takes node ``ks[j]`` of stage
        ``j``."""
        if len(ks) == 3:
            a, c, b = ks
            mid0, mid1 = self.mids
            return self.head + (self.first[a], mid0[a][c], mid1[c][b],
                                self.last[b]) + self.tail
        return (self.head + (self.first[ks[0]],)
                + tuple(mid[a][b] for mid, a, b in zip(self.mids, ks, ks[1:]))
                + (self.last[ks[-1]],) + self.tail)


class _PlanLinks:
    """Stage lookup for a pair with no healthy :class:`_EcmpPair`: its
    links are looked up per message, so only walked links become
    resources (a degraded-only pair stays out of the healthy tables)."""

    __slots__ = ("link", "plan")

    def __init__(self, net: "Network", plan: tuple):
        self.link = net._link
        self.plan = plan

    def at(self, ks) -> tuple:
        """The links of the path that takes node ``ks[j]`` of stage
        ``j``."""
        return _chain(self.link, pick_path(self.plan, ks))


class _DegradedEcmp:
    """A multi-path pair under link failures: one draw among the
    surviving stage-index combinations ``alive`` (shared by the pairs on
    the same two fabric nodes), then the pair's stage tables."""

    __slots__ = ("alive", "stages")

    def __init__(self, alive: tuple, stages):
        self.alive = alive
        self.stages = stages

    def links(self, draws: Optional[ScalarDraws]) -> tuple:
        """One message's links, from its single draw."""
        alive = self.alive
        if draws is None:
            return self.stages.at(alive[0])
        return self.stages.at(alive[draws.below(len(alive))])


class _Dropped(Unroutable):
    """A pair with no route: the message makes the draw ``width``
    names, then is dropped."""

    __slots__ = ()

    def links(self, draws: Optional[ScalarDraws]) -> tuple:
        """Make the draw, then raise :class:`NoPathError`."""
        if draws is not None and self.width:
            draws.below(self.width)
        raise NoPathError(self.reason)


def _chain(link: Callable[[str, str], Resource], nodes: list) -> tuple:
    """The links along a node sequence."""
    return tuple(link(u, v) for u, v in zip(nodes, nodes[1:]))


class Network:
    """Drives messages across a topology on the event engine."""

    def __init__(self, engine: Engine, topology: Topology,
                 config: Optional[NetworkConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        self.engine = engine
        self.topology = topology
        self.config = config or NetworkConfig()
        self.rng = rng
        #: Per-message ECMP draws, on ``rng``'s own state.
        self._draws = ScalarDraws(rng) if rng is not None else None
        self._links: Dict[Tuple[str, str], _Link] = {}
        #: Healthy routes of ``(src, dst)`` endpoint pairs, assembled on
        #: a pair's first send from ``_ends`` and ``_cores``: a link
        #: tuple for a fixed path, an :class:`_EcmpPair` for a
        #: multi-path one.  These three tables are cleared whenever the
        #: topology's graph changes.
        self._pairs: Dict[Tuple[str, str], object] = {}
        #: Per endpoint: ``(fabric node, up links, down links)``, the
        #: attachment link into and out of the node it is attached to
        #: (no links for a bare fabric node).
        self._ends: Dict[str, tuple] = {}
        #: Healthy route between two fabric nodes, compiled once for
        #: every endpoint pair on them: a link tuple or an
        #: :class:`_EcmpPair` without attachment links.
        self._cores: Dict[Tuple[str, str], object] = {}
        for table in (self._pairs, self._ends, self._cores):
            topology._route_dependents.append(table)
        #: Routes under the current failure set, compiled per pair on
        #: its first degraded send: a link tuple, a
        #: :class:`_DegradedEcmp` or a :class:`_Dropped`.  Cleared with
        #: the topology's degraded tables (every link failure, recovery
        #: or addition), and kept apart from ``_pairs``.
        self._degraded: Dict[Tuple[str, str], object] = {}
        topology._degraded_dependents.append(self._degraded)
        #: Stage-to-stage link tables keyed by their node names, shared
        #: by every pair whose routes cross the same two stages.
        self._stage_tables: Dict[tuple, tuple] = {}
        #: Exact per-size hop times (``hop_latency_ns + serialization``),
        #: memoized so the hot path recomputes nothing — same float ops
        #: on first use, so values are bit-identical to the uncached code.
        self._hop_times: Dict[int, float] = {}
        #: Messages waiting in link queues, kept by ``_Transit.hop_done``.
        self._queued = 0
        self.messages_sent = 0
        self.hops_traversed = 0
        self.total_latency = 0.0
        #: Messages lost to failed links/partitions (blackholes).  The
        #: RPC layer's timeouts are what turns these into retries.
        self.messages_dropped = 0

    def _link(self, u: str, v: str) -> _Link:
        res = self._links.get((u, v))
        if res is None:
            res = self._links[(u, v)] = _Link(
                self.engine, u, v, self.topology.link_capacity(u, v))
        return res

    def _stage_table(self, us: list, vs: list) -> tuple:
        """Links from each node of ``us`` to each of ``vs``, as
        ``table[a][b]``."""
        key = (tuple(us), tuple(vs))
        table = self._stage_tables.get(key)
        if table is None:
            table = self._stage_tables[key] = tuple(
                tuple(self._link(a, b) for b in vs) for a in us)
        return table

    def _end(self, name: str) -> tuple:
        """Compile and store one endpoint's ``_ends`` entry."""
        node = self.topology._attachments.get(name)
        if node is None:
            end = (name, (), ())
        else:
            end = (node, (self._link(name, node),), (self._link(node, name),))
        self._ends[name] = end
        return end

    def _core(self, s: str, d: str):
        """Compile and store the healthy route between two fabric nodes
        (raises :class:`NoPathError`, storing nothing, when there is
        none)."""
        topo = self.topology
        plan = topo._route_plan(s, d)
        if plan is None:
            core = _chain(self._link, topo._route(s, d, None))
        else:
            core = _EcmpPair.compile(self, *plan)
        self._cores[(s, d)] = core
        return core

    def _compile_pair(self, src: str, dst: str):
        """Assemble and store one endpoint pair's healthy route: the
        source's up link, the fabric-node pair's core, the destination's
        down link — the links of :meth:`Topology.route_entry`'s route
        (raises :class:`NoPathError`, storing nothing, when there is
        none)."""
        s, up, __ = self._ends.get(src) or self._end(src)
        d, __, down = self._ends.get(dst) or self._end(dst)
        core = self._cores.get((s, d))
        if core is None:
            core = self._core(s, d)
        if core.__class__ is tuple:
            pair = up + core + down
        elif up or down:
            pair = core.joined(up, down)
        else:
            pair = core
        self._pairs[(src, dst)] = pair
        return pair

    def _compile_degraded(self, src: str, dst: str):
        """Compile and store one pair's route under the current failure
        set."""
        entry = self.topology.degraded_entry(src, dst)
        if entry.__class__ is list:
            pair = _chain(self._link, entry)
        elif entry.__class__ is Unroutable:
            pair = _Dropped(entry.reason, entry.width)
        else:
            head, stages, tail, alive = entry
            healthy = self._pairs.get((src, dst))
            if healthy.__class__ is not _EcmpPair:
                healthy = _PlanLinks(self, (head, stages, tail))
            pair = _DegradedEcmp(alive, healthy)
        self._degraded[(src, dst)] = pair
        return pair

    def _route_links(self, src: str, dst: str) -> tuple:
        """This message's links, from the pair's compiled entry: the
        healthy table while no link is failed, else the table of the
        current failure set.  Raises :class:`NoPathError` when there is
        no route.

        :meth:`send` and :meth:`send_fanout` read a compiled healthy
        pair from ``_pairs`` themselves and come here only for a pair
        not compiled yet or while a link is failed.
        """
        if self.topology._failed_links:
            pair = self._degraded.get((src, dst))
            if pair is None:
                pair = self._compile_degraded(src, dst)
        else:
            pair = self._pairs.get((src, dst))
            if pair is None:
                pair = self._compile_pair(src, dst)
        if pair.__class__ is tuple:
            return pair
        return pair.links(self._draws)

    def send(self, src: str, dst: str, size_bytes: int,
             on_delivered: Callable[[], None], rec=None,
             on_dropped: Optional[Callable[[], None]] = None) -> None:
        """Route a message and call ``on_delivered`` when it arrives.

        ``rec`` optionally attributes the message's ``icn_hop`` span to a
        request's trace (ignored when tracing is off).  When no surviving
        route exists (failed links) the message blackholes:
        ``on_dropped`` fires if given, otherwise nothing does — callers
        with a delivery guarantee wrap sends in a timeout.

        Every send walks a tuple of link Resources (:meth:`_route_links`)
        with one :class:`_Transit` object and the cached per-size hop
        time; a mid-flight link failure is caught hop-by-hop.
        """
        engine = self.engine
        pair = None if self.topology._failed_links \
            else self._pairs.get((src, dst))
        if pair.__class__ is tuple:
            links = pair
        elif pair is not None:
            links = pair.links(self._draws)
        else:
            try:
                links = self._route_links(src, dst)
            except NoPathError:
                self._drop(on_dropped)
                return
        self.messages_sent += 1
        n_hops = len(links)
        if not n_hops:
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
        self.hops_traversed += n_hops

        if engine.tracer.enabled:
            on_delivered = engine.tracer.span_until_done(
                engine, on_delivered, "icn_hop", f"{src}->{dst}", rec=rec,
                track="icn", hops=n_hops, bytes=size_bytes)

        if not self.config.contention:
            engine.schedule(hop_time * n_hops, self._deliver, engine.now,
                            on_delivered)
            return
        _Transit(self, links, hop_time, on_delivered, on_dropped).hop_done()

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
        checking and contention-free mode fall back to plain sends,
        which keeps the fast path small.
        """
        engine = self.engine
        if (engine.tracer.enabled or engine.check.enabled
                or not self.config.contention):
            send = self.send
            for src in sources:
                send(src, dst, size_bytes, on_each, rec=rec)
            return
        hop_time = self._hop_times.get(size_bytes)
        if hop_time is None:
            hop_time = self.config.hop_latency_ns + \
                self.config.serialization_ns(size_bytes)
            self._hop_times[size_bytes] = hop_time
        # No event runs mid-batch, so no link fails or recovers in it.
        pairs = None if self.topology._failed_links else self._pairs
        draws = self._draws
        schedule = engine.schedule
        sent = 0
        hops = 0
        for src in sources:
            pair = None if pairs is None else pairs.get((src, dst))
            if pair.__class__ is tuple:
                links = pair
            elif pair is not None:
                links = pair.links(draws)
            else:
                try:
                    links = self._route_links(src, dst)
                except NoPathError:
                    self._drop(None)
                    continue
            sent += 1
            if not links:
                schedule(0.0, on_each)
                continue
            hops += len(links)
            _Transit(self, links, hop_time, on_each, None).hop_done()
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
        return self._queued

    @property
    def mean_latency(self) -> float:
        if self.messages_sent == 0:
            return 0.0
        return self.total_latency / self.messages_sent

    def busiest_links(self, top: int = 5):
        """(link, jobs_served) of the most-used links — contention hot spots."""
        ranked = sorted(self._links.items(), key=lambda kv: -kv[1].jobs_served)
        return [(link, res.jobs_served) for link, res in ranked[:top]]
