"""Topology base class: a directed graph with per-link capacities.

Concrete topologies implement :meth:`path`, returning the node sequence a
message follows.  Multi-path topologies (leaf-spine, fat-tree fabrics)
make randomized equal-cost choices using the caller's RNG, which is how
ECMP load-spreading is modelled.

Links can *fail* (:meth:`fail_link`) and recover.  What happens to a
route that crosses a dead link is a property of the routing scheme:

* ``adaptive=False`` (deterministic hardware routing — the 2D mesh's XY
  dimension-order routers, the fat-tree's single up/down path): the
  route is simply gone and :meth:`path` raises :class:`NoPathError`;
  the message blackholes and recovery is the RPC layer's problem.
* ``adaptive=True``: the fabric recomputes a shortest path over the
  surviving links (BFS), still raising :class:`NoPathError` when the
  failure actually partitions the graph.  The leaf-spine fabric goes
  further and re-picks among its surviving equal-cost paths (ECMP).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np


class NoPathError(ValueError):
    """No surviving route between two nodes (failure/partition)."""


def _dedup(nodes: List[str]) -> List[str]:
    """Drop consecutive repeats of a node from an assembled route."""
    return [n for i, n in enumerate(nodes) if i == 0 or n != nodes[i - 1]]


def draw_path(plan, rng: Optional[np.random.Generator]) -> List[str]:
    """One path of an ECMP ``(head, stages, tail)`` plan: one
    ``rng.integers(len(stage))`` draw per stage, in stage order (index 0
    everywhere without an RNG)."""
    head, stages, tail = plan
    if rng is None:
        return head + [stage[0] for stage in stages] + tail
    integers = rng.integers
    return head + [stage[int(integers(len(stage)))] for stage in stages] + tail


class Topology:
    """Directed graph; links carry a capacity used by the Network layer."""

    def __init__(self, name: str = ""):
        self.name = name
        self._adj: Dict[str, List[str]] = {}
        self._capacity: Dict[Tuple[str, str], int] = {}
        self._attachments: Dict[str, str] = {}
        self._failed_links: Set[Tuple[str, str]] = set()
        #: Whether routing recomputes around dead links (see module doc).
        self.adaptive = False
        #: Healthy-path compiled routes, keyed by the (src, dst) pair as
        #: given to :meth:`path` (attachment names included); see
        #: :meth:`route_entry`.  Only consulted when no link is failed;
        #: invalidated by :meth:`add_link` (and therefore :meth:`attach`).
        self._route_cache: Dict[Tuple[str, str], object] = {}
        #: Tables derived from ``_route_cache`` (each Network's per-pair
        #: link tables), cleared whenever it is.
        self._route_dependents: List[dict] = []

    @property
    def nodes(self) -> List[str]:
        return list(self._adj.keys())

    @property
    def links(self) -> List[Tuple[str, str]]:
        return list(self._capacity.keys())

    def add_node(self, node: str) -> None:
        self._adj.setdefault(node, [])

    def add_link(self, u: str, v: str, capacity: int = 1,
                 bidirectional: bool = True) -> None:
        """Add a directed link u->v (and v->u unless ``bidirectional=False``)."""
        if capacity < 1:
            raise ValueError("link capacity must be >= 1")
        self._route_cache.clear()
        for table in self._route_dependents:
            table.clear()
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u].append(v)
        self._capacity[(u, v)] = capacity
        if bidirectional:
            if u not in self._adj[v]:
                self._adj[v].append(u)
            self._capacity[(v, u)] = capacity

    def has_link(self, u: str, v: str) -> bool:
        return (u, v) in self._capacity

    def link_capacity(self, u: str, v: str) -> int:
        return self._capacity[(u, v)]

    # ------------------------------------------------------- link failures

    def fail_link(self, u: str, v: str, bidirectional: bool = True) -> None:
        """Take a link out of service (both directions by default)."""
        if not self.has_link(u, v):
            raise KeyError(f"cannot fail unknown link {u!r}->{v!r}")
        self._failed_links.add((u, v))
        if bidirectional and self.has_link(v, u):
            self._failed_links.add((v, u))

    def recover_link(self, u: str, v: str, bidirectional: bool = True) -> None:
        """Return a failed link to service."""
        self._failed_links.discard((u, v))
        if bidirectional:
            self._failed_links.discard((v, u))

    def link_alive(self, u: str, v: str) -> bool:
        return (u, v) in self._capacity and (u, v) not in self._failed_links

    @property
    def failed_links(self) -> Set[Tuple[str, str]]:
        return set(self._failed_links)

    @property
    def has_failures(self) -> bool:
        return bool(self._failed_links)

    def _path_alive(self, path: List[str]) -> bool:
        failed = self._failed_links
        return not any((u, v) in failed for u, v in zip(path, path[1:]))

    def attach(self, name: str, node: str, capacity: int = 1) -> None:
        """Attach an endpoint (NIC, village port) to a switch node.

        Endpoint hops are real links (they can contend) but routing inside
        the fabric is delegated to the topology's own scheme.
        """
        if node not in self._adj:
            raise KeyError(f"cannot attach {name!r}: unknown node {node!r}")
        self.add_link(name, node, capacity=capacity)
        self._attachments[name] = node

    def path(self, src: str, dst: str, rng: Optional[np.random.Generator] = None
             ) -> List[str]:
        """Node sequence from src to dst, resolving attached endpoints.

        Fault-free routing is served from the per-pair compiled cache of
        :meth:`route_entry`: attachment resolution, route construction
        and deduplication run once, after which each call is a dict probe
        plus, for an ECMP pair, one ``rng.integers`` draw per stage in
        stage order (the RNG calls of the uncompiled ``_route``).  A
        fixed path is returned as a shared list; callers must not mutate
        it.  With failed links present the uncached degraded path below
        runs instead.
        """
        if self._failed_links:
            return self._path_degraded(src, dst, rng)
        entry = self.route_entry(src, dst)
        if entry.__class__ is list:
            return entry
        return draw_path(entry, rng)

    def route_entry(self, src: str, dst: str):
        """The healthy route of one endpoint pair, compiled once.

        Either a fixed node list (rng-independent routing), or an ECMP
        plan ``(head, stages, tail)``: the fixed nodes before the first
        choice, one list of equal-cost nodes per stage (one draw each, in
        order), and the fixed nodes after the last.  Raises
        :class:`NoPathError` (uncached) when the pair is disconnected.
        """
        entry = self._route_cache.get((src, dst))
        if entry is None:
            entry = self._route_cache[(src, dst)] = \
                self._compile_route(src, dst)
        return entry

    def _compile_route(self, src: str, dst: str):
        """Build the :meth:`route_entry` value for one endpoint pair."""
        prefix: List[str] = []
        suffix: List[str] = []
        s, d = src, dst
        if s in self._attachments:
            prefix = [src]
            s = self._attachments[src]
        if d in self._attachments:
            suffix = [dst]
            d = self._attachments[dst]
        plan = self._route_plan(s, d)
        if plan is None:
            return _dedup(prefix + self._route(s, d, None) + suffix)
        head, stages, tail = plan
        return _dedup(prefix + head), stages, _dedup(tail + suffix)

    def _route_plan(self, src: str, dst: str):
        """Describe the healthy route's RNG draws for compilation.

        Returns ``None`` when ``_route`` ignores the RNG (the route is a
        single fixed path — BFS, XY mesh, fat-tree up/down), or a
        ``(head, stages, tail)`` plan (see :meth:`route_entry`) whose
        per-stage draws replicate ``_route``'s.  Stage nodes never equal
        their neighbours, so only head and tail need deduplication.  Any
        subclass whose ``_route`` consumes the RNG on the fault-free path
        MUST override this to match its draws exactly, or healthy routing
        through the cache would change RNG stream consumption.
        """
        return None

    def _path_degraded(self, src: str, dst: str,
                       rng: Optional[np.random.Generator] = None) -> List[str]:
        """Uncached routing used while any link is failed."""
        prefix: List[str] = []
        suffix: List[str] = []
        if src in self._attachments:
            prefix = [src]
            src = self._attachments[src]
        if dst in self._attachments:
            suffix = [dst]
            dst = self._attachments[dst]
        full = _dedup(prefix + self._route(src, dst, rng) + suffix)
        if self._failed_links and not self._path_alive(full):
            if not self.adaptive:
                raise NoPathError(
                    f"route {full[0]} -> {full[-1]} crosses a failed link "
                    f"({self.name}: deterministic routing, no reroute)")
            # Adaptive fabric: recompute over the surviving links.  The
            # endpoint attachment hops are fixed wires — if one of those
            # died, no amount of rerouting helps.
            full = _dedup(prefix + self.shortest_path(src, dst) + suffix)
            if not self._path_alive(full):
                raise NoPathError(
                    f"endpoint link of {full[0]} -> {full[-1]} is down")
        return full

    def _route(self, src: str, dst: str,
               rng: Optional[np.random.Generator] = None) -> List[str]:
        """Fabric-internal routing; subclasses override.  Default: BFS."""
        return self.shortest_path(src, dst)

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """BFS shortest path over *surviving* links; raises
        :class:`NoPathError` when disconnected (or partitioned)."""
        if src == dst:
            return [src]
        if src not in self._adj or dst not in self._adj:
            raise KeyError(f"unknown node in path request: {src} -> {dst}")
        failed = self._failed_links
        prev: Dict[str, str] = {}
        q = deque([src])
        seen = {src}
        while q:
            node = q.popleft()
            for nb in self._adj[node]:
                if nb in seen:
                    continue
                if failed and (node, nb) in failed:
                    continue
                seen.add(nb)
                prev[nb] = node
                if nb == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return path[::-1]
                q.append(nb)
        raise NoPathError(f"no path from {src} to {dst}")

    def validate_path(self, path: List[str]) -> bool:
        """True when every consecutive pair is an existing link."""
        return all(self.has_link(u, v) for u, v in zip(path, path[1:]))
