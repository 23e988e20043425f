"""Path-redundancy under link failures, per topology.

The paper claims the hierarchical leaf-spine's "many redundant
equal-cost paths" (Section 4.2) as a robustness property.  These tests
pin the property down: leaf-spine connectivity survives *any* single
fabric link removal, while the 2D mesh's deterministic XY routing loses
routes even though the grid stays connected, and the fat-tree — a tree —
partitions outright on every link failure.
"""

import itertools

import pytest

from repro.icn import FatTree, HierarchicalLeafSpine, Mesh2D, NoPathError


def fabric_links(topo):
    """Every physical link once (the graph stores both directions)."""
    return sorted({tuple(sorted(link)) for link in topo.links})


def path_alive(topo, path):
    return all(topo.link_alive(u, v) for u, v in zip(path, path[1:]))


def loses_route(topo, src, dst):
    try:
        topo.path(src, dst)
        return False
    except NoPathError:
        return True


# ------------------------------------------------------------ leaf-spine


def test_leafspine_equal_cost_path_counts():
    topo = HierarchicalLeafSpine(n_pods=2, leaves_per_pod=4,
                                 spines_per_pod=3, n_core=5)
    intra = topo.equal_cost_paths(topo.leaf_name(0, 0), topo.leaf_name(0, 1))
    assert len(intra) == 3                      # one per pod spine
    cross = topo.equal_cost_paths(topo.leaf_name(0, 0), topo.leaf_name(1, 2))
    assert len(cross) == 3 * 5 * 3              # up spine x core x down spine
    assert all(len(p) == 5 for p in cross)      # all minimal: 4 hops
    assert len({tuple(p) for p in cross}) == len(cross)
    assert all(topo.validate_path(p) for p in cross)


def test_leafspine_equal_cost_paths_in_name_order_under_failures():
    """The enumeration yields every surviving up-spine x core x
    down-spine path in index order, the order the ECMP draw indexes."""
    import numpy as np

    topo = HierarchicalLeafSpine(n_pods=3, leaves_per_pod=2,
                                 spines_per_pod=3, n_core=4)
    rng = np.random.default_rng(11)
    links = fabric_links(topo)
    for k in rng.choice(len(links), size=6, replace=False):
        topo.fail_link(*links[int(k)])
    leaves = [topo.leaf(i) for i in range(topo.n_leaves)]
    for src, dst in itertools.permutations(leaves, 2):
        sp, dp = int(src[4]), int(dst[4])
        if sp == dp:
            want = [[src, topo.spine_name(sp, s), dst]
                    for s in range(topo.spines_per_pod)]
        else:
            want = [[src, topo.spine_name(sp, u), topo.core_name(c),
                     topo.spine_name(dp, d), dst]
                    for u in range(topo.spines_per_pod)
                    for c in range(topo.n_core)
                    for d in range(topo.spines_per_pod)]
        assert topo.equal_cost_paths(src, dst) == want
        assert topo.equal_cost_paths(src, dst, alive_only=True) == [
            p for p in want if path_alive(topo, p)]


def test_leafspine_alive_only_filters_failed_paths():
    topo = HierarchicalLeafSpine(n_pods=1, leaves_per_pod=2,
                                 spines_per_pod=3, n_core=1)
    src, dst = topo.leaf_name(0, 0), topo.leaf_name(0, 1)
    assert len(topo.equal_cost_paths(src, dst, alive_only=True)) == 3
    topo.fail_link(src, topo.spine_name(0, 0))
    alive = topo.equal_cost_paths(src, dst, alive_only=True)
    assert len(alive) == 2
    assert all(topo.spine_name(0, 0) not in p for p in alive)
    topo.recover_link(src, topo.spine_name(0, 0))
    assert len(topo.equal_cost_paths(src, dst, alive_only=True)) == 3


def test_leafspine_survives_any_single_link_failure():
    """ECMP redundancy: for every fabric link, killing it leaves all
    leaf pairs routable over surviving links."""
    topo = HierarchicalLeafSpine(n_pods=2, leaves_per_pod=2,
                                 spines_per_pod=2, n_core=2)
    pairs = [(topo.leaf_name(0, 0), topo.leaf_name(0, 1)),   # intra-pod
             (topo.leaf_name(0, 0), topo.leaf_name(1, 1)),   # cross-pod
             (topo.leaf_name(1, 0), topo.leaf_name(0, 1))]
    for u, v in fabric_links(topo):
        topo.fail_link(u, v)
        for src, dst in pairs:
            path = topo.path(src, dst)
            assert path_alive(topo, path), \
                f"route {src}->{dst} crosses dead link {u}-{v}"
        topo.recover_link(u, v)
    assert not topo.has_failures


# ------------------------------------------------------------------ mesh


def test_mesh_xy_blackholes_on_failed_link_though_grid_connected():
    topo = Mesh2D(3, 3)
    src, dst = topo.tile(0, 0), topo.tile(2, 0)
    topo.fail_link(topo.tile(0, 0), topo.tile(1, 0))
    # The grid itself is still connected...
    assert topo.shortest_path(src, dst)
    # ...but the XY dimension-order route is gone: blackhole.
    with pytest.raises(NoPathError):
        topo.path(src, dst)
    # Routes not crossing the dead link are unaffected.
    assert path_alive(topo, topo.path(topo.tile(0, 1), topo.tile(2, 1)))
    topo.recover_link(topo.tile(0, 0), topo.tile(1, 0))
    assert path_alive(topo, topo.path(src, dst))


def test_adaptive_mesh_detours_around_failure():
    topo = Mesh2D(3, 3, adaptive=True)
    src, dst = topo.tile(0, 0), topo.tile(2, 0)
    baseline = topo.path(src, dst)
    topo.fail_link(topo.tile(0, 0), topo.tile(1, 0))
    detour = topo.path(src, dst)
    assert len(detour) > len(baseline)
    assert path_alive(topo, detour)


# --------------------------------------------------------------- fat-tree


def test_fattree_any_single_link_failure_partitions():
    """The fabric is a tree: every link failure cuts some leaf pair off,
    and recovery restores it (no redundancy to fall back on)."""
    topo = FatTree(n_leaves=8)
    leaves = [topo.leaf(i) for i in range(topo.n_leaves)]
    for u, v in fabric_links(topo):
        topo.fail_link(u, v)
        cut = [(a, b) for a, b in itertools.combinations(leaves, 2)
               if loses_route(topo, a, b)]
        assert cut, f"link {u}-{v} should partition the tree"
        topo.recover_link(u, v)
        a, b = cut[0]
        assert path_alive(topo, topo.path(a, b))


# ----------------------------------------------------------- common rules


def test_fail_unknown_link_raises():
    with pytest.raises(KeyError):
        Mesh2D(2, 2).fail_link("t0,0", "t1,1")   # diagonal: no such link


def test_endpoint_link_failure_is_fatal_even_when_adaptive():
    """Attachment hops are fixed wires; rerouting cannot save them."""
    topo = HierarchicalLeafSpine(n_pods=1, leaves_per_pod=2,
                                 spines_per_pod=2, n_core=1)
    topo.attach("nicA", topo.leaf_name(0, 0))
    topo.fail_link("nicA", topo.leaf_name(0, 0))
    with pytest.raises(NoPathError):
        topo.path("nicA", topo.leaf_name(0, 1))
