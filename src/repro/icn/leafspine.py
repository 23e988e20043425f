"""Hierarchical leaf-spine ICN — the uManycore topology (Section 4.2).

Default geometry matches Section 5: 32 leaf NHs in 4 pods of 8; each pod
has 4 second-level (spine) NHs connected all-to-all to its 8 leaves; 8
third-level (core) NHs each connect to all 16 spines.  Longest path:
leaf -> spine -> core -> spine -> leaf = 4 hops, and every stage offers
multiple equal-cost choices (ECMP), which is what suppresses contention.
"""

from __future__ import annotations

from typing import List

from repro.icn.topology import Topology, pick_path


class HierarchicalLeafSpine(Topology):
    """Pods of leaf+spine switches joined by a third level of core switches."""

    def __init__(self, n_pods: int = 4, leaves_per_pod: int = 8,
                 spines_per_pod: int = 4, n_core: int = 8,
                 link_capacity: int = 1):
        if min(n_pods, leaves_per_pod, spines_per_pod) < 1 or n_core < 1:
            raise ValueError("all dimensions must be >= 1")
        super().__init__(name=f"leafspine{n_pods}x{leaves_per_pod}")
        #: ECMP hardware re-picks among surviving equal-cost paths
        #: (compiled per failure set by the base class), which falls
        #: back to BFS when none survives — the "many redundant
        #: equal-cost paths" resilience claim (Sec 4.2).
        self.adaptive = True
        self.n_pods = n_pods
        self.leaves_per_pod = leaves_per_pod
        self.spines_per_pod = spines_per_pod
        self.n_core = n_core
        for pod in range(n_pods):
            for leaf in range(leaves_per_pod):
                for spine in range(spines_per_pod):
                    self.add_link(self.leaf_name(pod, leaf),
                                  self.spine_name(pod, spine),
                                  capacity=link_capacity)
            for spine in range(spines_per_pod):
                for core in range(n_core):
                    self.add_link(self.spine_name(pod, spine),
                                  self.core_name(core),
                                  capacity=link_capacity)
        self._leaf_names = [
            self.leaf_name(i // leaves_per_pod, i % leaves_per_pod)
            for i in range(n_pods * leaves_per_pod)]
        #: Leaf name -> pod, read by every route compile.
        self._pod_of = {name: i // leaves_per_pod
                        for i, name in enumerate(self._leaf_names)}
        #: ECMP stage node lists: each pod's spines, and the core level.
        self._pod_spines = [[self.spine_name(pod, s)
                             for s in range(spines_per_pod)]
                            for pod in range(n_pods)]
        self._cores = [self.core_name(c) for c in range(n_core)]

    @property
    def n_leaves(self) -> int:
        return self.n_pods * self.leaves_per_pod

    @property
    def n_switches(self) -> int:
        return self.n_leaves + self.n_pods * self.spines_per_pod + self.n_core

    @staticmethod
    def leaf_name(pod: int, leaf: int) -> str:
        return f"leaf{pod}:{leaf}"

    @staticmethod
    def spine_name(pod: int, spine: int) -> str:
        return f"spine{pod}:{spine}"

    @staticmethod
    def core_name(core: int) -> str:
        return f"core{core}"

    def leaf(self, index: int) -> str:
        """Global leaf index 0..n_leaves-1 -> node name (precomputed)."""
        if not 0 <= index < self.n_leaves:
            raise IndexError(f"leaf index {index} out of range")
        return self._leaf_names[index]

    def _route_plan(self, src: str, dst: str):
        """ECMP plan of the route between two distinct leaves.

        One stage, the pod's spines, within a pod; up-spine → core →
        down-spine between pods.  Draw order per message is the stage
        order, which pins every RNG stream.
        """
        if src == dst:
            return None
        try:
            src_pod = self._pod_of[src]
            dst_pod = self._pod_of[dst]
        except KeyError as missing:
            raise ValueError("leaf-spine routing endpoints must be leaves: "
                             f"{missing.args[0]}") from None
        if src_pod == dst_pod:
            return [src], [self._pod_spines[src_pod]], [dst]
        return [src], [self._pod_spines[src_pod], self._cores,
                       self._pod_spines[dst_pod]], [dst]

    def equal_cost_paths(self, src: str, dst: str,
                         alive_only: bool = False) -> List[List[str]]:
        """Every minimal ECMP path between two leaves, in the order the
        ECMP draw indexes them (up-spine, then core, then down-spine).

        ``alive_only`` filters to paths whose links all survive the
        current failure set — the redundancy that makes single-link
        failures invisible here while deterministic fabrics blackhole.
        """
        plan = self._route_plan(src, dst)
        if plan is None:
            return [[src]]
        choices = (self._alive_choices(src, dst) if alive_only
                   else self._all_choices(plan[1]))
        return [pick_path(plan, ks) for ks in choices]
