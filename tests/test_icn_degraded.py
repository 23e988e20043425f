"""Degraded routing from tables compiled once per failure set.

While any link is failed, the network routes each endpoint pair from an
entry compiled on the pair's first degraded send and thrown away by the
next link failure, recovery or addition.  The reference below is the
per-message algorithm those tables replace, kept verbatim in spirit: it
enumerates the surviving equal-cost paths of a leaf-spine pair and draws
among them with ``rng.integers``, falls back to BFS when none survives,
and drops a message whose endpoint wire is dead after the draw.  Every
message must take the same links as the reference (or both must find no
route), and the two generators must end in the same state.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.icn import (FatTree, HierarchicalLeafSpine, Mesh2D, Network,
                       NetworkConfig, NoPathError)
from repro.icn import network as network_mod
from repro.sim import Engine

# ---------------------------------------------------------------- reference


def _dedup(nodes):
    return [n for i, n in enumerate(nodes) if i == 0 or n != nodes[i - 1]]


def _alive(topo, path):
    return all(topo.link_alive(u, v) for u, v in zip(path, path[1:]))


def _ref_equal_cost_paths(topo, src, dst):
    """Every surviving minimal leaf-spine path: up-spine, core,
    down-spine, each in index order."""
    if src == dst:
        return [[src]]
    ok = topo.link_alive
    src_pod = int(src[4:].split(":")[0])
    dst_pod = int(dst[4:].split(":")[0])
    spines = [[topo.spine_name(p, s) for s in range(topo.spines_per_pod)]
              for p in range(topo.n_pods)]
    cores = [topo.core_name(c) for c in range(topo.n_core)]
    paths = []
    if src_pod == dst_pod:
        for spine in spines[src_pod]:
            if ok(src, spine) and ok(spine, dst):
                paths.append([src, spine, dst])
        return paths
    for up in spines[src_pod]:
        if not ok(src, up):
            continue
        for core in cores:
            if not ok(up, core):
                continue
            for down in spines[dst_pod]:
                if ok(core, down) and ok(down, dst):
                    paths.append([src, up, core, down, dst])
    return paths


def _ref_route(topo, src, dst, rng):
    """The fabric route of one message under failures."""
    if not isinstance(topo, HierarchicalLeafSpine):
        return topo._route(src, dst, rng)       # fixed: XY, up/down, BFS
    if src == dst:
        return [src]
    paths = _ref_equal_cost_paths(topo, src, dst)
    if not paths:
        return topo.shortest_path(src, dst)
    if rng is None:
        return paths[0]
    return paths[int(rng.integers(len(paths)))]


def _ref_path(topo, src, dst, rng):
    """One message's node path under failures (raises NoPathError)."""
    prefix, suffix = [], []
    if src in topo._attachments:
        prefix, src = [src], topo._attachments[src]
    if dst in topo._attachments:
        suffix, dst = [dst], topo._attachments[dst]
    full = _dedup(prefix + _ref_route(topo, src, dst, rng) + suffix)
    if not _alive(topo, full):
        if not topo.adaptive:
            raise NoPathError("crosses a failed link")
        full = _dedup(prefix + topo.shortest_path(src, dst) + suffix)
        if not _alive(topo, full):
            raise NoPathError("endpoint link is down")
    return full


def _reference(topo, src, dst, rng):
    """The reference outcome: the edges walked, or ``"drop"``.  A
    healthy fabric uses the healthy tables, which this change keeps."""
    try:
        if topo.has_failures:
            path = _ref_path(topo, src, dst, rng)
        else:
            path = topo.path(src, dst, rng)
    except NoPathError:
        return "drop"
    return tuple(zip(path, path[1:]))


# ------------------------------------------------------------------ fabrics


def um128_leafspine():
    """The uManycore-128 server's ICN: 4 pods of 2 leaves, 4 spines per
    pod, 8 cores, and 16 villages, two on each leaf."""
    topo = HierarchicalLeafSpine(n_pods=4, leaves_per_pod=2)
    leaves = [topo.leaf(i) for i in range(topo.n_leaves)]
    villages = [f"vil{v}" for v in range(16)]
    for v, name in enumerate(villages):
        topo.attach(name, leaves[v // 2])
    return topo, leaves + villages


def fattree():
    topo = FatTree(n_leaves=8)
    for i in (0, 3, 6):
        topo.attach(f"nic{i}", topo.leaf(i))
    return topo, [topo.leaf(i) for i in range(8)] + ["nic0", "nic3", "nic6"]


def mesh(adaptive):
    topo = Mesh2D(3, 3, adaptive=adaptive)
    topo.attach_at("nic", 0, 1)
    return topo, [topo.tile(x, y) for x in range(3) for y in range(3)] + ["nic"]


def physical_links(topo):
    return sorted({tuple(sorted(link)) for link in topo.links})


def leafspine_patterns(topo):
    """Failure sets that a random draw rarely hits: a leaf cut off, and
    every equal-cost path between two leaves dead while a longer detour
    survives (within a pod and across pods)."""
    sp, core, leaf = topo.spine_name, topo.core_name, topo.leaf_name
    spines = range(topo.spines_per_pod)
    isolated = [(leaf(1, 0), sp(1, s)) for s in spines]
    # leaf0:0 keeps only spine0:0, whose core links are all dead: no
    # ECMP path out of pod 0 from it, but leaf0:1 relays (6 hops).
    cross = [(leaf(0, 0), sp(0, s)) for s in spines if s] + \
        [(sp(0, 0), core(c)) for c in range(topo.n_core)]
    # leaf2:0 keeps only spine2:0 and leaf2:1 only spine2:1: no shared
    # spine, so the pod's pair detours through a core (4 hops).
    intra = [(leaf(2, 0), sp(2, s)) for s in spines if s != 0] + \
        [(leaf(2, 1), sp(2, s)) for s in spines if s != 1]
    return [isolated, cross, intra]


FABRICS = {
    "leafspine": um128_leafspine,
    "fattree": fattree,
    "mesh": lambda: mesh(False),
    "mesh_adaptive": lambda: mesh(True),
}


@contextmanager
def recorded_transits():
    """Log the link tuple of every routed message the network sends."""
    sent = []

    class Recording(network_mod._Transit):
        __slots__ = ()

        def __init__(self, net, links, *args):
            sent.append(links)
            super().__init__(net, links, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_mod, "_Transit", Recording)
        yield sent


# ------------------------------------------------------- differential test


@st.composite
def scenarios(draw, fabric):
    """A fabric, a sequence of failure sets, and per set a list of
    message groups ``(fanout, sources, dst)`` as endpoint indices."""
    topo, endpoints = FABRICS[fabric]()
    links = physical_links(topo)
    attach = [link for link in links
              if any(n in topo._attachments for n in link)]
    fabric_only = [link for link in links if link not in attach]
    patterns = (leafspine_patterns(topo)
                if isinstance(topo, HierarchicalLeafSpine) else [[]])
    phases = []
    if draw(st.booleans()):
        # Healthy first, between every pair: degraded ECMP entries then
        # reuse the healthy stage tables instead of per-message lookups.
        n = len(endpoints)
        phases.append(([], [(False, [a], b) for a in range(n)
                            for b in range(n)]))
    failed = set()
    for __ in range(draw(st.integers(1, 3))):
        if failed and draw(st.booleans()):
            # Recover some links and fail none: only recovery changes
            # the failure set.
            failed = failed - set(draw(st.lists(
                st.sampled_from(sorted(failed)), min_size=1, max_size=3)))
        else:
            failed = set(draw(st.lists(st.sampled_from(fabric_only),
                                       max_size=6)))
            failed |= set(draw(st.lists(st.sampled_from(attach),
                                        max_size=2)))
            for pattern in patterns:
                if draw(st.integers(0, 2)) == 0:
                    failed |= set(pattern)
        endpoint = st.integers(0, len(endpoints) - 1)
        groups = draw(st.lists(
            st.tuples(st.booleans(), st.lists(endpoint, min_size=1,
                                              max_size=4), endpoint),
            min_size=1, max_size=25))
        phases.append((sorted(failed), groups))
    return topo, endpoints, phases


def _run(topo, endpoints, phases, seed):
    """Send every phase's messages through the network and, in step,
    through the reference; return both outcome lists and generators."""
    net = Network(Engine(), topo, NetworkConfig(),
                  rng=None if seed is None else np.random.default_rng(seed))
    twin = None if seed is None else np.random.default_rng(seed)
    got, want = [], []
    with recorded_transits() as sent:
        def outcome(before_sent, before_dropped):
            if net.messages_dropped > before_dropped:
                return "drop"
            if len(sent) > before_sent:
                return tuple(link.edge for link in sent[-1])
            return ()                               # same node: no hop

        def sources(group):
            for src in group:
                mark = len(sent), net.messages_dropped
                yield endpoints[src]
                got.append(outcome(*mark))

        for failed, groups in phases:
            # Fail and recover only the links whose state changes.
            for link in physical_links(topo):
                if link in failed and topo.link_alive(*link):
                    topo.fail_link(*link)
                elif link not in failed and not topo.link_alive(*link):
                    topo.recover_link(*link)
            for fanout, srcs, d in groups:
                dst = endpoints[d]
                for src in srcs:
                    want.append(_reference(topo, endpoints[src], dst, twin))
                if fanout:
                    net.send_fanout(sources(srcs), dst, 64, lambda: None)
                else:
                    for src in sources(srcs):
                        net.send(src, dst, 64, lambda: None,
                                 on_dropped=lambda: None)
    net.engine.run()
    return got, want, net.rng, twin


@pytest.mark.parametrize("seeded", [True, False])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_degraded_routes_match_the_per_message_reference(fabric, seeded):
    @settings(max_examples=40 if fabric == "leafspine" else 15,
              deadline=None)
    @given(scenario=scenarios(fabric), seed=st.integers(0, 2**16))
    def check(scenario, seed):
        topo, endpoints, phases = scenario
        got, want, rng, twin = _run(topo, endpoints, phases,
                                    seed if seeded else None)
        assert got == want
        if seeded:
            assert rng.bit_generator.state == twin.bit_generator.state

    check()


def fixed_failures(topo):
    """One failure set with every degraded case in it (see
    :func:`test_reference_covers_detours_partitions_and_dead_endpoints`
    for the leaf-spine), and the links a recover-only step brings back."""
    links = physical_links(topo)
    if isinstance(topo, HierarchicalLeafSpine):
        isolated, cross, intra = leafspine_patterns(topo)
        dead_wires = [("vil2", topo.leaf(1)), ("vil9", topo.leaf(4))]
        return cross + intra + isolated + dead_wires, isolated
    attach = [link for link in links
              if any(n in topo._attachments for n in link)]
    fabric = [link for link in links if link not in attach]
    failed = fabric[:3] + attach[:1]
    return failed, failed[:2]


@pytest.mark.parametrize("seeded", [True, False])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_every_pair_matches_the_reference_under_fixed_failures(fabric,
                                                               seeded):
    """Every endpoint pair, once through ``send`` and once through
    ``send_fanout``, under a fixed failure set and then after a
    recover-only step: the cases a random draw may miss."""
    topo, endpoints = FABRICS[fabric]()
    failed, recovered = fixed_failures(topo)
    n = len(endpoints)
    groups = ([(False, [a], b) for a in range(n) for b in range(n)]
              + [(True, list(range(n)), b) for b in range(n)])
    phases = [([tuple(sorted(link)) for link in failed], groups),
              ([tuple(sorted(link)) for link in failed
                if link not in recovered], groups)]
    got, want, rng, twin = _run(topo, endpoints, phases,
                                7 if seeded else None)
    assert got == want
    assert "drop" in want and len(set(want)) > n
    if seeded:
        assert rng.bit_generator.state == twin.bit_generator.state


def test_reference_covers_detours_partitions_and_dead_endpoints():
    """The fixed failure patterns really produce each degraded case on
    the uManycore-128 fabric: an ECMP pick, a single surviving path, a
    BFS detour, a partition, and a draw before a dead endpoint drop."""
    topo, __ = um128_leafspine()
    isolated, cross, intra = leafspine_patterns(topo)
    for link in isolated + cross + intra + [("vil2", topo.leaf(1))]:
        topo.fail_link(*link)
    leaf = topo.leaf_name
    assert len(_ref_equal_cost_paths(topo, leaf(0, 1), leaf(3, 0))) > 1
    assert len(_ref_equal_cost_paths(topo, leaf(0, 0), leaf(0, 1))) == 1
    assert _ref_equal_cost_paths(topo, leaf(0, 0), leaf(3, 0)) == []
    assert len(topo.shortest_path(leaf(0, 0), leaf(3, 0))) == 7
    assert _ref_equal_cost_paths(topo, leaf(2, 0), leaf(2, 1)) == []
    assert len(topo.shortest_path(leaf(2, 0), leaf(2, 1))) == 5
    with pytest.raises(NoPathError):
        topo.shortest_path(leaf(1, 0), leaf(0, 1))
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(NoPathError):
        _ref_path(topo, "vil2", leaf(3, 0), rng)     # draws, then drops
    assert rng.bit_generator.state != state


# ------------------------------------------------------------ invalidation


def _two_spines():
    """Two leaves over two spines, each leaf with one village."""
    topo = HierarchicalLeafSpine(n_pods=1, leaves_per_pod=2,
                                 spines_per_pod=2, n_core=1)
    a, b = topo.leaf_name(0, 0), topo.leaf_name(0, 1)
    topo.attach("va", a)
    topo.attach("vb", b)
    net = Network(Engine(), topo, NetworkConfig(),
                  rng=np.random.default_rng(3))
    return topo, net, a, b


def _spines_used(net, sent, n=40):
    before = len(sent)
    for __ in range(n):
        net.send("va", "vb", 64, lambda: None)
    return {links[2].edge[0] for links in sent[before:]}


def test_fail_and_recover_each_replace_the_compiled_entries():
    topo, net, a, b = _two_spines()
    s0, s1 = topo.spine_name(0, 0), topo.spine_name(0, 1)
    with recorded_transits() as sent:
        topo.fail_link(a, s0)
        assert _spines_used(net, sent) == {s1}
        assert list(net._degraded) == [("va", "vb")]
        compiled = net._degraded[("va", "vb")]
        topo.fail_link(b, topo.spine_name(0, 1))     # now no ECMP path
        assert net._degraded == {} and topo._alive_cache == {}
        assert _spines_used(net, sent) == {s1}       # BFS detour via core
        c = topo.core_name(0)
        assert {tuple(link.edge for link in links)
                for links in sent[-40:]} == {
            (("va", a), (a, s1), (s1, c), (c, s0), (s0, b), (b, "vb"))}
        topo.recover_link(b, s1)                     # back to one path
        assert net._degraded == {} and topo._alive_cache == {}
        assert _spines_used(net, sent) == {s1}
        assert net._degraded[("va", "vb")] is not compiled
        topo.recover_link(a, s0)                     # healthy again
        assert net._degraded == {}
        assert _spines_used(net, sent) == {s0, s1}
    assert net._pairs and net.messages_dropped == 0


def test_adding_a_link_replaces_the_compiled_degraded_entries():
    from repro.icn.topology import Topology

    topo = Topology()
    topo.adaptive = True
    for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")]:
        topo.add_link(u, v)
    net = Network(Engine(), topo, NetworkConfig())
    topo.fail_link("x", "y")                         # degraded elsewhere
    with recorded_transits() as sent:
        net.send("a", "d", 64, lambda: None)
        assert len(sent[-1]) == 3 and list(net._degraded) == [("a", "d")]
        topo.add_link("a", "d")                      # a shortcut appears
        assert net._degraded == {} and topo._alive_cache == {}
        net.send("a", "d", 64, lambda: None)
        assert [link.edge for link in sent[-1]] == [("a", "d")]
    assert topo.path("a", "d") == ["a", "d"]


def test_topology_path_reads_the_same_compiled_entries():
    """``Topology.path`` draws from the same compiled degraded entries
    as the network; it matches the reference message for message."""
    topo, endpoints = um128_leafspine()
    for pattern in leafspine_patterns(topo):
        for link in pattern:
            topo.fail_link(*link)
    topo.fail_link("vil3", topo.leaf(1))
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    pick = np.random.default_rng(2)
    for __ in range(2000):
        src, dst = (endpoints[int(k)]
                    for k in pick.integers(len(endpoints), size=2))
        want = _reference(topo, src, dst, twin)
        try:
            path = topo.path(src, dst, rng)
            got = tuple(zip(path, path[1:]))
        except NoPathError:
            got = "drop"
        assert got == want
    assert rng.bit_generator.state == twin.bit_generator.state
