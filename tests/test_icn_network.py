"""Tests for the event-driven network contention model."""

import numpy as np
import pytest

from repro.icn import (FatTree, HierarchicalLeafSpine, Mesh2D, Network,
                       NetworkConfig)
from repro.sim import Engine, Resource


def line_topology(n=3):
    from repro.icn.topology import Topology

    t = Topology()
    for i in range(n - 1):
        t.add_link(f"n{i}", f"n{i+1}")
    return t


def test_single_message_latency_equals_hops_times_hop_time():
    eng = Engine()
    net = Network(eng, line_topology(4),
                  NetworkConfig(hop_cycles=5, freq_ghz=2.0, link_bytes_per_ns=1e9))
    done = []
    net.send("n0", "n3", 64, lambda: done.append(eng.now))
    eng.run()
    assert done == [pytest.approx(3 * 2.5)]


def test_serialization_adds_to_hop_time():
    eng = Engine()
    cfg = NetworkConfig(hop_cycles=5, freq_ghz=2.0, link_bytes_per_ns=128.0)
    net = Network(eng, line_topology(2), cfg)
    done = []
    net.send("n0", "n1", 1280, lambda: done.append(eng.now))
    eng.run()
    assert done == [pytest.approx(2.5 + 10.0)]


def test_contention_queues_messages_on_shared_link():
    eng = Engine()
    net = Network(eng, line_topology(2),
                  NetworkConfig(hop_cycles=2, freq_ghz=1.0, link_bytes_per_ns=1e9))
    arrivals = []
    for __ in range(3):
        net.send("n0", "n1", 64, lambda: arrivals.append(eng.now))
    eng.run()
    assert arrivals == [pytest.approx(2.0), pytest.approx(4.0), pytest.approx(6.0)]


def test_no_contention_mode_is_pure_delay():
    eng = Engine()
    net = Network(eng, line_topology(2),
                  NetworkConfig(hop_cycles=2, freq_ghz=1.0,
                                link_bytes_per_ns=1e9, contention=False))
    arrivals = []
    for __ in range(3):
        net.send("n0", "n1", 64, lambda: arrivals.append(eng.now))
    eng.run()
    assert arrivals == [pytest.approx(2.0)] * 3


def test_self_message_delivered_immediately():
    eng = Engine()
    net = Network(eng, line_topology(2), NetworkConfig())
    done = []
    net.send("n0", "n0", 64, lambda: done.append(eng.now))
    eng.run()
    assert done == [0.0]


def test_network_stats():
    eng = Engine()
    net = Network(eng, line_topology(3), NetworkConfig())
    net.send("n0", "n2", 64, lambda: None)
    eng.run()
    assert net.messages_sent == 1
    assert net.hops_traversed == 2
    assert net.mean_latency > 0


def test_leafspine_suffers_less_contention_than_mesh():
    """The Figure 7 mechanism: same random traffic, same hop latency;
    ECMP spreads load while XY mesh concentrates it."""
    rng = np.random.default_rng(1)

    def run(topology, endpoints, use_rng):
        eng = Engine()
        net = Network(eng, topology, NetworkConfig(),
                      rng=np.random.default_rng(2) if use_rng else None)
        latencies = []
        pairs = [(endpoints[rng.integers(len(endpoints))],
                  endpoints[rng.integers(len(endpoints))]) for __ in range(400)]
        for i, (src, dst) in enumerate(pairs):
            t = i * 0.7  # aggressive injection
            eng.schedule_at(t, lambda s=src, d=dst, st=t: net.send(
                s, d, 256, lambda st=st: latencies.append(eng.now - st)))
        eng.run()
        return float(np.mean(latencies))

    mesh = Mesh2D(8, 4)
    mesh_eps = [mesh.tile(x, y) for x in range(8) for y in range(4)]
    ls = HierarchicalLeafSpine()
    ls_eps = [ls.leaf(i) for i in range(32)]
    assert run(ls, ls_eps, True) < run(mesh, mesh_eps, False)


def test_busiest_links_reporting():
    eng = Engine()
    net = Network(eng, line_topology(3), NetworkConfig())
    for __ in range(5):
        net.send("n0", "n2", 64, lambda: None)
    eng.run()
    top = net.busiest_links(top=1)
    assert top[0][1] == 5


# ------------------------------------------- degraded fabric (same send path)


def degraded_leafspine(contention=True):
    """Two leaves over two spines with the first spine's uplink from the
    source leaf failed: every send has to reroute over the second."""
    eng = Engine()
    topo = HierarchicalLeafSpine(n_pods=1, leaves_per_pod=2,
                                 spines_per_pod=2, n_core=1)
    src, dst = topo.leaf_name(0, 0), topo.leaf_name(0, 1)
    net = Network(eng, topo,
                  NetworkConfig(hop_cycles=5, freq_ghz=2.0,
                                link_bytes_per_ns=1e9, contention=contention),
                  rng=np.random.default_rng(0))
    topo.fail_link(src, topo.spine_name(0, 0))
    return eng, topo, net, src, dst


@pytest.mark.parametrize("contention", [True, False])
def test_rerouted_message_arrives_after_hops_times_hop_time(contention):
    eng, topo, net, src, dst = degraded_leafspine(contention)
    done = []
    net.send(src, dst, 64, lambda: done.append(eng.now))
    eng.run()
    assert done == [pytest.approx(2 * 2.5)]
    assert net.hops_traversed == 2 and net.messages_dropped == 0
    if contention:
        assert set(net._links) == {(src, topo.spine_name(0, 1)),
                                   (topo.spine_name(0, 1), dst)}


def test_link_failing_under_a_waiting_message_drops_it_in_flight():
    eng, topo, net, src, dst = degraded_leafspine()
    delivered, dropped = [], []
    for __ in range(2):
        net.send(src, dst, 64, lambda: delivered.append(eng.now),
                 on_dropped=lambda: dropped.append(eng.now))
    # At t=3 the first message is on its second hop; the second still
    # queues behind it on the first.  Killing the second hop's link now
    # strands only the one that has not reached it yet.
    eng.schedule(3.0, topo.fail_link, topo.spine_name(0, 1), dst)
    eng.run()
    assert delivered == [pytest.approx(5.0)]
    assert dropped == [pytest.approx(5.0)]
    assert net.messages_sent == 2 and net.messages_dropped == 1


def test_traced_degraded_sends_emit_one_icn_hop_span_each():
    from repro.telemetry.tracer import Tracer

    eng, topo, net, src, dst = degraded_leafspine()
    eng.tracer = Tracer()
    delivered = []
    for __ in range(5):
        net.send(src, dst, 64, lambda: delivered.append(eng.now))
    eng.run()
    hops = [s for s in eng.tracer.spans if s.category == "icn_hop"]
    assert len(hops) == len(delivered) == 5
    assert [s.end_ns for s in hops] == delivered
    assert all(s.attrs["hops"] == 2 for s in hops)


def test_degraded_sends_do_not_grow_the_route_cache():
    eng, topo, net, src, dst = degraded_leafspine()
    topo.recover_link(src, topo.spine_name(0, 0))
    net.send(src, dst, 64, lambda: None)        # healthy: compiled + stored
    eng.run()
    pairs, routes = dict(net._pairs), dict(topo._route_cache)
    assert list(pairs) == [(src, dst)]
    topo.fail_link(src, topo.spine_name(0, 0))
    delivered = []
    for __ in range(1000):
        net.send(src, dst, 64, lambda: delivered.append(1))
        net.send(dst, src, 64, lambda: delivered.append(1))   # never healthy
    eng.run()
    assert net._pairs == pairs and topo._route_cache == routes
    assert len(delivered) == 2000 and net.messages_dropped == 0


# ------------------------------------ hop fast path vs a plain-Resource walker


def mixed_topology():
    """Two routes into ``d`` that merge on the capacity-1 link c->d, a
    capacity-2 link b->c shared by three sources, and a side branch."""
    from repro.icn.topology import Topology

    t = Topology()
    t.add_link("a", "b")
    t.add_link("x", "b")
    t.add_link("b", "c", capacity=2)
    t.add_link("c", "d")
    t.add_link("y", "c")
    t.add_link("b", "z")
    return t


class _RefWalker:
    """Reference hop walker: one plain ``Resource`` per link and one
    ``acquire`` per hop, each hop's completion callback acquiring the
    next link (``Resource._finish`` runs that callback before starting
    the link's next queued job)."""

    def __init__(self, eng, topo, cfg):
        self.eng = eng
        self.topo = topo
        self.cfg = cfg
        self.links = {}

    def send(self, src, dst, size, on_delivered):
        path = self.topo.path(src, dst)
        hop_time = self.cfg.hop_latency_ns + self.cfg.serialization_ns(size)
        links = []
        for u, v in zip(path, path[1:]):
            if (u, v) not in self.links:
                self.links[(u, v)] = Resource(
                    self.eng, capacity=self.topo.link_capacity(u, v))
            links.append(self.links[(u, v)])

        def hop(i):
            if i == len(links):
                on_delivered()
            else:
                links[i].acquire(hop_time, lambda: hop(i + 1))

        hop(0)


def drive_contended_stream(eng, send, links):
    """Inject a contended stream with same-ns ties; a ``bounce`` message
    re-sends over c->d the moment its own c->d hop frees that link, so
    the re-send jumps the messages queued there.  Returns the delivery
    log and the c->d queue lengths seen at each bounce."""
    rng = np.random.default_rng(5)
    routes = [("a", "d"), ("x", "d"), ("y", "d"), ("a", "c"), ("x", "z"),
              ("a", "z")]
    delivered, queued_at_bounce = [], []

    def on_delivered(tag):
        delivered.append((eng.now, tag))
        if tag.startswith("bounce") and not tag.endswith("'"):
            queued_at_bounce.append(links()[("c", "d")].queue_length)
            send("c", "d", 64, lambda: on_delivered(tag + "'"))

    for i in range(120):
        t = float(rng.integers(0, 40)) * 1.5     # heavy same-ns ties
        src, dst = routes[int(rng.integers(len(routes)))]
        size = int(rng.choice([64, 128, 512]))
        tag = f"{'bounce' if dst == 'd' and i % 4 == 0 else 'm'}{i}"
        eng.schedule_at(t, lambda s=src, d=dst, n=size, g=tag: send(
            s, d, n, lambda: on_delivered(g)))
    eng.run()
    return delivered, queued_at_bounce


LINK_STATS = ("jobs_served", "busy_time", "wait_time_total", "max_queue_len")


@pytest.mark.parametrize("checked", [False, True])
def test_hop_fast_path_matches_plain_resource_walker(checked):
    """Delivery times and order, and every link's queueing statistics,
    equal those of a walker built from plain Resources — exactly, not
    approximately: the fast path must keep Resource's event order."""
    from repro.check.context import CheckContext

    cfg = NetworkConfig(hop_cycles=2, freq_ghz=1.0, link_bytes_per_ns=64.0)

    eng = Engine()
    if checked:
        eng.check = CheckContext(fail_fast=True)
    net = Network(eng, mixed_topology(), cfg)
    got, bounces = drive_contended_stream(
        eng, lambda s, d, n, cb: net.send(s, d, n, cb), lambda: net._links)

    ref_eng = Engine()
    ref = _RefWalker(ref_eng, mixed_topology(), cfg)
    want, ref_bounces = drive_contended_stream(
        ref_eng, ref.send, lambda: ref.links)

    assert got == want
    assert bounces == ref_bounces and max(bounces) > 0   # queue was jumped
    assert eng.events_processed == ref_eng.events_processed
    assert net._links.keys() == ref.links.keys()
    for key, res in ref.links.items():
        stats = [getattr(net._links[key], f) for f in LINK_STATS]
        assert stats == [getattr(res, f) for f in LINK_STATS], key
    assert net._links[("b", "c")].capacity == 2
    assert net._links[("b", "c")].max_queue_len > 0
    assert sum(r.wait_time_total for r in net._links.values()) > 0
    if checked:
        assert eng.check.finalize() == []


# ----------------------------------------- per-pair route tables vs the topology


def _record_transits(monkeypatch):
    """Log the link tuple of every routed message the network sends."""
    from repro.icn import network as network_mod

    sent = []

    class Recording(network_mod._Transit):
        __slots__ = ()

        def __init__(self, net, links, *args):
            sent.append(links)
            super().__init__(net, links, *args)

    monkeypatch.setattr(network_mod, "_Transit", Recording)
    return sent


def _leafspine_fabric():
    """Two pods of two leaves; two villages on each leaf of pod 0 and
    one on each leaf of pod 1, so pairs are intra- and inter-pod,
    village-attached and bare-leaf at either end."""
    topo = HierarchicalLeafSpine(n_pods=2, leaves_per_pod=2,
                                 spines_per_pod=3, n_core=4)
    leaves = [topo.leaf(i) for i in range(topo.n_leaves)]
    villages = []
    for i, leaf in enumerate(leaves):
        for j in range(2 if i < 2 else 1):
            villages.append(f"vil{i}.{j}")
            topo.attach(villages[-1], leaf, capacity=2)
    return topo, leaves + villages


def _fattree_fabric():
    topo = FatTree(n_leaves=8)
    topo.attach("nic", topo.leaf(3))
    return topo, [topo.leaf(i) for i in range(8)] + ["nic"]


def _mesh_fabric():
    topo = Mesh2D(3, 3)
    topo.attach_at("nic", 0, 1)
    return topo, [topo.tile(x, y) for x in range(3) for y in range(3)] + ["nic"]


def _server_fabric(config):
    """A full-scale server's topology (its villages attached to their
    leaves) with a NIC attached to the last leaf as well."""
    from repro.systems.cluster import ClusterSimulation
    from repro.workloads.deathstar import deathstar_app

    server = ClusterSimulation(config, deathstar_app("Text"),
                               rps_per_server=1000.0, n_servers=1,
                               duration_s=0.001, seed=3).servers[0]
    topo = server.topology
    topo.attach("nic", server._leaves[-1])
    return topo, server._leaves + server._village_nodes + ["nic"]


def _umanycore_fabric():
    from repro.systems.configs import UMANYCORE

    return _server_fabric(UMANYCORE)


def _scaleout_fabric():
    from repro.systems.configs import SCALEOUT

    return _server_fabric(SCALEOUT)


def _serverclass_fabric():
    from repro.systems.configs import SERVERCLASS

    return _server_fabric(SERVERCLASS)


@pytest.mark.parametrize("fabric", [_leafspine_fabric, _fattree_fabric,
                                    _mesh_fabric, _umanycore_fabric,
                                    _scaleout_fabric, _serverclass_fabric])
@pytest.mark.parametrize("seeded", [True, False])
def test_route_tables_match_topology_paths(monkeypatch, fabric, seeded):
    """Every message's links are the links of ``Topology.path`` drawn
    from a twin generator, and both generators end in the same state:
    the pair tables consume each draw ``path`` would, in the same order.

    Sources are random, the destination itself (a self pair) or an
    endpoint on the destination's fabric node (a same-leaf pair: a
    village and its leaf, or two villages on one leaf)."""
    sent = _record_transits(monkeypatch)
    topo, endpoints = fabric()
    eng = Engine()
    net = Network(eng, topo, NetworkConfig(),
                  rng=np.random.default_rng(9) if seeded else None)
    on_node = {}
    for end in endpoints:
        on_node.setdefault(topo._attachments.get(end, end), []).append(end)
    pick = np.random.default_rng(4)

    def source(k, dst):
        if k % 7 == 3:
            return dst
        near = on_node[topo._attachments.get(dst, dst)] if k % 7 == 5 \
            else endpoints
        return near[int(pick.integers(len(near)))]

    stream = []
    for i in range(1500):
        dst = endpoints[int(pick.integers(len(endpoints)))]
        if i % 5 == 0:
            srcs = [source(i + k, dst) for k in range(4)]
            net.send_fanout(iter(srcs), dst, 256, lambda: None)
        else:
            srcs = [source(i, dst)]
            net.send(srcs[0], dst, 256, lambda: None)
        stream += [(src, dst) for src in srcs]
        if i % 100 == 0:
            eng.run()
    eng.run()

    twin = np.random.default_rng(9) if seeded else None
    want = []
    for src, dst in stream:
        path = topo.path(src, dst, twin)
        if len(path) > 1:
            want.append([net._links[e] for e in zip(path, path[1:])])
    assert [list(links) for links in sent] == want
    assert len(sent) > 1000
    assert len(net._pairs) == len(set(stream))
    assert any(src == dst for src, dst in stream)
    assert any(src != dst and topo._attachments.get(src, src)
               == topo._attachments.get(dst, dst) for src, dst in stream)
    if seeded:
        assert net.rng.bit_generator.state == twin.bit_generator.state
        if fabric is _leafspine_fabric:      # every stage choice was used
            assert len({tuple(links) for links in sent}) > 200


def _walk_up_down(tree, src, dst):
    """The fat-tree route by name: parse each end's ``ft{level}:{index}``
    and climb the lower end (the source on a tie) until both meet."""
    def parse(node):
        level, index = node[2:].split(":")
        return int(level), int(index)

    if src == dst:
        return [src]
    (sl, si), (dl, di) = parse(src), parse(dst)
    up, down = [src], [dst]
    while (sl, si) != (dl, di):
        if sl <= dl:
            sl, si = sl + 1, si // 2
            up.append(tree.switch(sl, si))
        else:
            dl, di = dl + 1, di // 2
            down.append(tree.switch(dl, di))
    return up + down[::-1][1:]


@pytest.mark.parametrize("n_leaves", [2, 8, 32])
def test_fattree_route_matches_the_up_down_walk(n_leaves):
    """Every switch pair, leaves and inner switches alike."""
    tree = FatTree(n_leaves=n_leaves)
    switches = tree.nodes
    assert len(switches) == tree.n_switches
    for src in switches:
        for dst in switches:
            route = tree._route(src, dst)
            assert route == _walk_up_down(tree, src, dst), (src, dst)
            assert tree.validate_path(route)


def test_route_tables_are_sized_by_the_fabric():
    """A full-scale uManycore run compiles at most one core route per
    pair of its 32 leaves, never fills the topology's reference route
    cache, and holds no link resource the topology does not have."""
    from repro.systems.cluster import ClusterSimulation
    from repro.systems.configs import UMANYCORE
    from repro.workloads.deathstar import deathstar_app

    sim = ClusterSimulation(UMANYCORE, deathstar_app("MCompose"),
                            rps_per_server=5000.0, n_servers=1,
                            duration_s=0.02, seed=8)
    sim.run()
    server = sim.servers[0]
    net, topo = server.network, server.topology
    assert topo.n_leaves == 32
    assert 0 < len(net._cores) <= 32 * 32 < len(net._pairs)
    assert topo._route_cache == {}
    assert len(net._links) <= len(topo.links)


def test_route_tables_hold_one_entry_per_pair_and_no_variants():
    """20 000 sends on a uManycore-128 leaf-spine (4 pods, 2 leaves per
    pod, 16 villages) compile one entry per endpoint pair and retain no
    per-path object: the live objects after the sends drain are the
    ones that lived before, plus the FIFO queue of each link on which a
    message waited for the first time."""
    import gc
    from collections import deque
    from dataclasses import replace

    from repro.systems.cluster import ClusterSimulation
    from repro.systems.configs import UMANYCORE
    from repro.workloads.deathstar import deathstar_app

    sim = ClusterSimulation(replace(UMANYCORE, n_cores=128, n_clusters=8),
                            deathstar_app("Text"), rps_per_server=1000.0,
                            n_servers=1, duration_s=0.001, seed=3)
    server = sim.servers[0]
    eng, net, topo = sim.engine, server.network, server.topology
    assert isinstance(topo, HierarchicalLeafSpine) and topo.n_pods == 4
    endpoints = [topo.leaf(c) for c in range(8)] + server._village_nodes
    assert len(endpoints) == 24
    pairs = [(a, b) for a in endpoints for b in endpoints]
    for src, dst in pairs:                        # compile every pair
        net.send(src, dst, 512, lambda: None)
    eng.run()
    assert len(net._pairs) == len(pairs)
    links = len(net._links)

    pick = np.random.default_rng(1)
    gc.collect()
    # Links that have never held a waiter, so hold no queue yet.
    idle = [link for link in net._links.values() if not link.max_queue_len]
    assert all(type(link._queue) is not deque for link in idle)
    before = len(gc.get_objects())
    for k in range(20_000):
        src, dst = pairs[int(pick.integers(len(pairs)))]
        net.send(src, dst, 512, lambda: None)
        if k % 500 == 499:
            eng.run()
    eng.run()
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(net._pairs) == len(pairs) and len(net._links) == links
    assert net.messages_sent == len(pairs) + 20_000
    # A queue is allocated exactly on a link's first waiter.
    new_queues = sum(type(link._queue) is deque for link in idle)
    assert new_queues == sum(link.max_queue_len > 0 for link in idle)
    # Per-path objects would leave a few container objects behind for
    # each of the thousands of distinct ECMP paths drawn.
    assert grown - new_queues < 100, (grown, new_queues)


def test_adding_a_link_recompiles_the_pair_tables():
    eng = Engine()
    topo = line_topology(3)
    net = Network(eng, topo, NetworkConfig())
    net.send("n0", "n2", 64, lambda: None)
    eng.run()
    assert net.hops_traversed == 2 and list(net._pairs) == [("n0", "n2")]
    topo.add_link("n0", "n2")                    # a shortcut appears
    assert net._pairs == {} and topo._route_cache == {}
    net.send("n0", "n2", 64, lambda: None)
    eng.run()
    assert net.hops_traversed == 3 and net._links[("n0", "n2")].jobs_served == 1


# ------------------------------------------------------ O(1) queue gauge


def _queued_by_scan(net):
    return sum(len(link._queue) for link in net._links.values())


@pytest.mark.parametrize("checked", [False, True])
def test_queue_gauge_matches_link_queues_between_events(checked):
    """The running queue count equals a scan of every link queue after
    every event of a contended run with fan-in bursts, a link that
    fails and recovers under queued messages, and in-flight drops; at
    drain it is 0 (checked by CheckContext too)."""
    from repro.check.context import CheckContext

    topo, endpoints = _leafspine_fabric()
    leaves = [topo.leaf(i) for i in range(topo.n_leaves)]
    eng = Engine()
    if checked:
        eng.check = CheckContext()
    net = Network(eng, topo, NetworkConfig(hop_cycles=2, freq_ghz=1.0,
                                           link_bytes_per_ns=8.0),
                  rng=np.random.default_rng(2))
    pick = np.random.default_rng(6)
    dropped = []
    for i in range(300):
        t = float(pick.integers(0, 2000))
        dst = endpoints[int(pick.integers(len(endpoints)))]
        if i % 3 == 0:
            eng.schedule_at(t, net.send_fanout, iter(leaves * 2), dst, 512,
                            lambda: None)
        else:
            src = endpoints[int(pick.integers(len(endpoints)))]
            eng.schedule_at(t, net.send, src, dst, 512, lambda: None, None,
                            lambda: dropped.append(eng.now))
    # A spine uplink and a village port die while messages queue on the
    # way to them, then come back.
    spine = topo.spine_name(0, 1)
    eng.schedule_at(500.0, topo.fail_link, leaves[0], spine)
    eng.schedule_at(700.0, topo.fail_link, leaves[1], "vil1.0")
    eng.schedule_at(900.0, topo.recover_link, leaves[0], spine)
    eng.schedule_at(1100.0, topo.recover_link, leaves[1], "vil1.0")

    samples = []
    while eng.peek_time() is not None:
        eng.run(max_events=1)
        samples.append((net.queued_messages(), _queued_by_scan(net)))
    assert all(count == scan for count, scan in samples)
    assert max(count for count, __ in samples) > 20
    assert samples[-1] == (0, 0) and net.queued_messages() == 0
    assert dropped and net.messages_dropped >= len(dropped)
    if checked:
        ledger = eng.check._net(net)
        assert ledger.inflight_drops > 0
        assert eng.check.finalize() == []


def test_check_flags_a_queue_gauge_left_nonzero_at_drain():
    from repro.check.context import CheckContext

    eng = Engine()
    eng.check = CheckContext()
    net = Network(eng, line_topology(3), NetworkConfig())
    for __ in range(3):
        net.send("n0", "n2", 64, lambda: None)
    eng.run()
    net._queued += 1
    assert [v.category for v in eng.check.finalize()] == ["conservation"]
