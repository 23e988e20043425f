"""Fat-tree ICN (the ScaleOut baseline).

Section 5: "the fat-tree topology has 63 NHs and its longest path is 10
hops".  That is a binary tree over 32 leaves (32+16+8+4+2+1 = 63
switches; leaf -> root -> leaf = 10 hops).  Fatness is modelled as link
capacity doubling towards the root, capped — a tapered fat-tree, which is
what keeps it cheaper than a full-bisection fabric and why it still
suffers contention near the root.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.icn.topology import Topology


class FatTree(Topology):
    """Binary fat-tree over ``n_leaves`` leaf switches.

    Nodes are ``ft{level}:{index}``; level 0 is the leaves.  A single
    up/down path exists between any two leaves (deterministic routing),
    which is also the topology's resilience Achilles' heel: since the
    graph is a tree, any link failure *partitions* it — every pair whose
    route crossed that link blackholes until the link recovers, with no
    possible reroute (``adaptive`` stays False by construction).
    """

    def __init__(self, n_leaves: int = 32, max_link_capacity: int = 2):
        if n_leaves < 2 or n_leaves & (n_leaves - 1):
            raise ValueError("n_leaves must be a power of two >= 2")
        super().__init__(name=f"fattree{n_leaves}")
        self.n_leaves = n_leaves
        self.levels = n_leaves.bit_length()  # 32 -> 6 levels (0..5)
        #: Switch names per level, by index, and each name's
        #: ``(level, index)``: routing walks these, not the names.
        self._names = [[self.switch(level, i)
                        for i in range(n_leaves >> level)]
                       for level in range(self.levels)]
        self._position = {name: (level, i)
                          for level, names in enumerate(self._names)
                          for i, name in enumerate(names)}
        for level in range(self.levels - 1):
            capacity = min(2 ** level * 2, max_link_capacity)
            for i, name in enumerate(self._names[level]):
                self.add_link(name, self._names[level + 1][i // 2],
                              capacity=capacity)

    @staticmethod
    def switch(level: int, index: int) -> str:
        return f"ft{level}:{index}"

    def leaf(self, index: int) -> str:
        if not 0 <= index < self.n_leaves:
            raise IndexError(f"leaf index {index} out of range")
        return self._names[0][index]

    @property
    def n_switches(self) -> int:
        return 2 * self.n_leaves - 1

    def _route(self, src: str, dst: str,
               rng: Optional[np.random.Generator] = None) -> List[str]:
        """Up to the lowest common ancestor, then down.

        The ancestor of switch ``(l, i)`` at level ``L`` is index
        ``i >> (L - l)``, so the two ends meet at the first level above
        both where those indices agree: the highest differing bit of
        their indices at the higher end's level.
        """
        if src == dst:
            return [src]
        sl, si = self._position[src]
        dl, di = self._position[dst]
        top = max(sl, dl)
        meet = top + ((si >> (top - sl)) ^ (di >> (top - dl))).bit_length()
        names = self._names
        return ([names[level][si >> (level - sl)]
                 for level in range(sl, meet + 1)]
                + [names[level][di >> (level - dl)]
                   for level in range(meet - 1, dl - 1, -1)])
