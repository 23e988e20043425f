"""Tests for the event-driven network contention model."""

import numpy as np
import pytest

from repro.icn import HierarchicalLeafSpine, Mesh2D, Network, NetworkConfig
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
    net.send(src, dst, 64, lambda: None)        # healthy: compiled + cached
    eng.run()
    cached = len(net._routes)
    assert cached == 1
    topo.fail_link(src, topo.spine_name(0, 0))
    delivered = []
    for __ in range(1000):
        net.send(src, dst, 64, lambda: delivered.append(1))
    eng.run()
    assert len(net._routes) == cached
    assert len(delivered) == 1000 and net.messages_dropped == 0


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
