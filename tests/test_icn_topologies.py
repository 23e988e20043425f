"""Tests for mesh, fat-tree and leaf-spine topologies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.icn import FatTree, HierarchicalLeafSpine, Mesh2D
from repro.icn.topology import Topology


# ---------------------------------------------------------------- base graph

def test_add_link_and_capacity():
    t = Topology()
    t.add_link("a", "b", capacity=3)
    assert t.has_link("a", "b") and t.has_link("b", "a")
    assert t.link_capacity("a", "b") == 3


def test_unidirectional_link():
    t = Topology()
    t.add_link("a", "b", bidirectional=False)
    assert t.has_link("a", "b") and not t.has_link("b", "a")


def test_shortest_path_bfs():
    t = Topology()
    t.add_link("a", "b")
    t.add_link("b", "c")
    t.add_link("a", "c")
    assert t.shortest_path("a", "c") == ["a", "c"]
    assert t.shortest_path("a", "a") == ["a"]


def test_disconnected_raises():
    t = Topology()
    t.add_node("a")
    t.add_node("z")
    with pytest.raises(ValueError):
        t.shortest_path("a", "z")


def test_invalid_capacity():
    t = Topology()
    with pytest.raises(ValueError):
        t.add_link("a", "b", capacity=0)


# --------------------------------------------------------------------- mesh

def test_mesh_xy_routing_is_manhattan():
    m = Mesh2D(5, 4)
    path = m.path(m.tile(0, 0), m.tile(3, 2))
    assert len(path) - 1 == 3 + 2
    assert m.validate_path(path)
    # XY: all x moves first.
    xs = [m.coords(n)[0] for n in path]
    assert xs == sorted(xs)


def test_mesh_attachment_endpoint():
    m = Mesh2D(4, 4)
    m.attach_at("nic", 0, 0)
    path = m.path("nic", m.tile(2, 1))
    assert path[0] == "nic" and path[-1] == m.tile(2, 1)
    assert m.validate_path(path)


def test_mesh_self_path():
    m = Mesh2D(3, 3)
    assert m.path(m.tile(1, 1), m.tile(1, 1)) == [m.tile(1, 1)]


@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_mesh_path_property(x0, y0, x1, y1):
    m = Mesh2D(5, 4)
    path = m.path(m.tile(x0, y0), m.tile(x1, y1))
    assert m.validate_path(path)
    assert len(path) - 1 == abs(x1 - x0) + abs(y1 - y0)


# ----------------------------------------------------------------- fat-tree

def test_fattree_paper_geometry():
    """Section 5: 63 NHs, longest path 10 hops."""
    ft = FatTree(32)
    assert ft.n_switches == 63
    assert len(ft.path(ft.leaf(0), ft.leaf(31))) - 1 == 10


def test_fattree_sibling_leaves_two_hops():
    ft = FatTree(32)
    assert len(ft.path(ft.leaf(0), ft.leaf(1))) - 1 == 2


def test_fattree_path_validity():
    ft = FatTree(16)
    for a, b in [(0, 15), (3, 4), (7, 8), (5, 5)]:
        path = ft.path(ft.leaf(a), ft.leaf(b))
        assert path[0] == ft.leaf(a) and path[-1] == ft.leaf(b)
        assert ft.validate_path(path)


def test_fattree_capacity_grows_toward_root():
    ft = FatTree(32, max_link_capacity=4)
    leaf_cap = ft.link_capacity(ft.switch(0, 0), ft.switch(1, 0))
    root_cap = ft.link_capacity(ft.switch(4, 0), ft.switch(5, 0))
    assert root_cap >= leaf_cap


def test_fattree_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        FatTree(12)


@given(st.integers(0, 31), st.integers(0, 31))
@settings(max_examples=60, deadline=None)
def test_fattree_path_property(a, b):
    ft = FatTree(32)
    path = ft.path(ft.leaf(a), ft.leaf(b))
    assert ft.validate_path(path)
    assert len(path) - 1 <= 10


# --------------------------------------------------------------- leaf-spine

def test_leafspine_paper_geometry():
    """Section 5: 32 leaves, 16 spines, 8 core NHs = 56 NHs; max 4 hops."""
    ls = HierarchicalLeafSpine()
    assert ls.n_leaves == 32
    assert ls.n_switches == 56


def test_leafspine_intra_pod_two_hops():
    ls = HierarchicalLeafSpine()
    path = ls.path(ls.leaf(0), ls.leaf(7))  # same pod
    assert len(path) - 1 == 2
    assert ls.validate_path(path)


def test_leafspine_cross_pod_four_hops():
    ls = HierarchicalLeafSpine()
    path = ls.path(ls.leaf(0), ls.leaf(31))  # pods 0 and 3
    assert len(path) - 1 == 4
    assert ls.validate_path(path)


def test_leafspine_ecmp_uses_multiple_paths():
    ls = HierarchicalLeafSpine()
    rng = np.random.default_rng(0)
    paths = {tuple(ls.path(ls.leaf(0), ls.leaf(31), rng)) for __ in range(50)}
    assert len(paths) > 10  # 4 spines x 8 cores x 4 spines = 128 choices


def test_leafspine_deterministic_without_rng():
    ls = HierarchicalLeafSpine()
    assert ls.path(ls.leaf(0), ls.leaf(31)) == ls.path(ls.leaf(0), ls.leaf(31))


def test_leafspine_rejects_non_leaf_endpoints():
    ls = HierarchicalLeafSpine()
    with pytest.raises(ValueError):
        ls.path("core0", ls.leaf(0))


def _parsed_route_plan(ls, src, dst):
    """The route plan derived by parsing the pods out of the leaf names."""
    if src == dst:
        return None
    src_pod = int(src[len("leaf"):].split(":")[0])
    dst_pod = int(dst[len("leaf"):].split(":")[0])
    if src_pod == dst_pod:
        return [src], [ls._pod_spines[src_pod]], [dst]
    return [src], [ls._pod_spines[src_pod], ls._cores,
                   ls._pod_spines[dst_pod]], [dst]


@pytest.mark.parametrize("geometry", [
    {}, {"n_pods": 3, "leaves_per_pod": 2, "spines_per_pod": 3, "n_core": 2}])
def test_leafspine_route_plan_matches_parsed_names(geometry):
    """The name -> pod table gives every leaf pair the plan the parsed
    names gave, and a spine or core endpoint still raises."""
    ls = HierarchicalLeafSpine(**geometry)
    leaves = [ls.leaf(i) for i in range(ls.n_leaves)]
    for src in leaves:
        for dst in leaves:
            assert ls._route_plan(src, dst) == _parsed_route_plan(ls, src, dst)
    for node in (ls.spine_name(0, 0), ls.core_name(0)):
        with pytest.raises(ValueError, match="must be leaves"):
            ls._route_plan(node, leaves[-1])
        with pytest.raises(ValueError, match="must be leaves"):
            ls._route_plan(leaves[0], node)


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_leafspine_path_property(a, b, seed):
    ls = HierarchicalLeafSpine()
    rng = np.random.default_rng(seed)
    path = ls.path(ls.leaf(a), ls.leaf(b), rng)
    assert ls.validate_path(path)
    assert len(path) - 1 <= 4  # the paper's longest-path guarantee
