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

Routes are compiled, not searched per message.  A healthy route is an
endpoint's attachment hop, the route between the two fabric nodes
(:meth:`Topology._route_plan`, or :meth:`Topology._route` when it is
fixed), and the other endpoint's attachment hop; the network compiles
the fabric part once per fabric-node pair, valid until the graph
changes.  :meth:`Topology.route_entry` compiles a whole endpoint pair
the same way; it is the reference :meth:`Topology.path` reads.
Degraded routes come from :meth:`Topology.degraded_entry`, built from
survivor tables valid for one failure set, which every link failure,
recovery or addition throws away.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Dict, List, Optional, Set, Tuple

import numpy as np


class NoPathError(ValueError):
    """No surviving route between two nodes (failure/partition)."""


def _dedup(nodes: List[str]) -> List[str]:
    """Drop consecutive repeats of a node from an assembled route."""
    return [n for i, n in enumerate(nodes) if i == 0 or n != nodes[i - 1]]


def pick_path(plan, ks) -> List[str]:
    """The path of an ECMP ``(head, stages, tail)`` plan that takes node
    ``ks[j]`` of stage ``j``."""
    head, stages, tail = plan
    return head + [stage[k] for stage, k in zip(stages, ks)] + tail


class Unroutable:
    """Degraded entry of a pair with no route under the failure set.

    ``width`` is the number of surviving equal-cost fabric paths the
    router still picks among before it meets a dead endpoint link: each
    message makes that pick's draw, then is dropped.  0 means no draw.
    """

    __slots__ = ("reason", "width")

    def __init__(self, reason: str, width: int = 0):
        self.reason = reason
        self.width = width


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
        #: Filled by :meth:`path` only: a Network compiles its own.
        self._route_cache: Dict[Tuple[str, str], object] = {}
        #: Tables derived from the healthy routes (each Network's
        #: endpoint, fabric-pair and endpoint-pair link tables), cleared
        #: with ``_route_cache``.
        self._route_dependents: List[dict] = []
        #: The surviving ECMP stage-index combinations of the current
        #: failure set, keyed by fabric node pair (see
        #: :meth:`_alive_choices`), and the tables derived from the
        #: failure set (each Network's degraded routes).  All are
        #: cleared by :meth:`fail_link`, :meth:`recover_link` and
        #: :meth:`add_link`.
        self._alive_cache: Dict[Tuple[str, str], tuple] = {}
        self._degraded_dependents: List[dict] = [self._alive_cache]
        #: Every stage-index combination of a plan, per stage widths, in
        #: ``itertools.product`` order; alive combinations share these.
        self._combos: Dict[tuple, tuple] = {}

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
        self._failures_changed()
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
        self._failures_changed()

    def recover_link(self, u: str, v: str, bidirectional: bool = True) -> None:
        """Return a failed link to service."""
        self._failed_links.discard((u, v))
        if bidirectional:
            self._failed_links.discard((v, u))
        self._failures_changed()

    def _failures_changed(self) -> None:
        """Throw away every table compiled for the old failure set."""
        for table in self._degraded_dependents:
            table.clear()

    def link_alive(self, u: str, v: str) -> bool:
        return (u, v) in self._capacity and (u, v) not in self._failed_links

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

        Read from the compiled entries: :meth:`route_entry` while no
        link is failed, :meth:`degraded_entry` otherwise, plus the
        route's ``rng.integers`` draws: one per stage of a healthy ECMP
        pair, in stage order, or one among the surviving paths of a
        degraded one (index 0 everywhere without an RNG).  A healthy
        fixed path is returned as a shared list; callers must not
        mutate it.  Raises :class:`NoPathError` when the pair has no
        route.
        """
        if self._failed_links:
            entry = self.degraded_entry(src, dst)
            if entry.__class__ is list:
                return entry
            if entry.__class__ is Unroutable:
                if rng is not None and entry.width:
                    rng.integers(entry.width)
                raise NoPathError(entry.reason)
            head, stages, tail, alive = entry
            k = 0 if rng is None else int(rng.integers(len(alive)))
            return pick_path((head, stages, tail), alive[k])
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

    def _resolve(self, src: str, dst: str):
        """``(prefix, s, d, suffix)``: the fabric nodes ``s``/``d`` the
        endpoints attach to, and the attachment hops around them."""
        prefix: List[str] = []
        suffix: List[str] = []
        s, d = src, dst
        if s in self._attachments:
            prefix = [src]
            s = self._attachments[src]
        if d in self._attachments:
            suffix = [dst]
            d = self._attachments[dst]
        return prefix, s, d, suffix

    def _compile_route(self, src: str, dst: str):
        """Build the :meth:`route_entry` value for one endpoint pair."""
        prefix, s, d, suffix = self._resolve(src, dst)
        plan = self._route_plan(s, d)
        if plan is None:
            return _dedup(prefix + self._route(s, d, None) + suffix)
        head, stages, tail = plan
        return _dedup(prefix + head), stages, _dedup(tail + suffix)

    def _route_plan(self, src: str, dst: str):
        """Describe the route between two fabric nodes for compilation.

        Returns ``None`` when the route is a single fixed path, given by
        :meth:`_route` (BFS, XY mesh, fat-tree up/down), or a
        ``(head, stages, tail)`` ECMP plan (see :meth:`route_entry`):
        each message draws one node per stage, in stage order, and under
        failures re-picks among the surviving combinations
        (:meth:`_alive_choices`).  Stage nodes never equal their
        neighbours, so only head and tail need deduplication.
        """
        return None

    def degraded_entry(self, src: str, dst: str):
        """Compile the route of one endpoint pair under the current
        failure set (callers keep it until the set changes).

        One of:

        * a fixed node list (no draw): the pair's single route, or the
          adaptive BFS detour when every equal-cost path lost a link;
        * ``(head, stages, tail, alive)``: an ECMP plan as in
          :meth:`route_entry` plus the stage-index combinations whose
          links all survive (:meth:`_alive_choices`); a message makes
          one ``integers(len(alive))`` draw and takes that combination;
        * an :class:`Unroutable`: the message is dropped, after the
          draw its ``width`` names.
        """
        prefix, s, d, suffix = self._resolve(src, dst)
        alive = self._alive_choices(s, d)
        if alive:
            if not (self._path_alive(prefix + [s])
                    and self._path_alive([d] + suffix)):
                # The fabric picks a surviving path, then the fixed
                # endpoint wire it needs turns out to be dead.
                return Unroutable(
                    f"endpoint link of {src} -> {dst} is down", len(alive))
            head, stages, tail = self._route_plan(s, d)
            return (_dedup(prefix + head), stages, _dedup(tail + suffix),
                    alive)
        try:
            # With a plan but no survivor, every equal-cost path lost a
            # link: the (adaptive) ECMP fabric detours by BFS.
            route = (self._route(s, d, None) if alive is None
                     else self.shortest_path(s, d))
            full = _dedup(prefix + route + suffix)
            if not self._path_alive(full):
                if not self.adaptive:
                    raise NoPathError(
                        f"route {full[0]} -> {full[-1]} crosses a failed "
                        f"link ({self.name}: deterministic routing, no "
                        f"reroute)")
                # Adaptive fabric: recompute over the surviving links.
                # The endpoint attachment hops are fixed wires — if one
                # of those died, no amount of rerouting helps.
                full = _dedup(prefix + self.shortest_path(s, d) + suffix)
                if not self._path_alive(full):
                    raise NoPathError(
                        f"endpoint link of {full[0]} -> {full[-1]} is down")
        except NoPathError as exc:
            return Unroutable(str(exc))
        return full

    def _alive_choices(self, src: str, dst: str) -> Optional[tuple]:
        """The surviving ECMP choices between two fabric nodes.

        ``None`` when their route is fixed (no plan), else the tuple of
        stage-index combinations whose links are all alive, in
        ``itertools.product`` order (first stage slowest) — the order of
        an enumeration of the equal-cost paths, which the draw indexes.
        Shared by every endpoint pair on the same two fabric nodes.
        """
        alive = self._alive_cache.get((src, dst))
        if alive is not None:
            return alive
        plan = self._route_plan(src, dst)
        if plan is None:
            return None
        head, stages, tail = plan
        # A plan's links all exist, so a link is alive unless failed.
        failed = self._failed_links
        # Surviving path prefixes, stage by stage, as (index into the
        # product of the stages so far, index in the last stage).
        live = [(k, k) for k, node in enumerate(stages[0])
                if (head[-1], node) not in failed]
        for cur, nxt in zip(stages, stages[1:]):
            hop = [[(u, v) not in failed for v in nxt] for u in cur]
            width = len(nxt)
            live = [(i * width + k, k) for i, a in live
                    for k in range(width) if hop[a][k]]
        out = [(node, tail[0]) not in failed for node in stages[-1]]
        every = self._all_choices(stages)
        alive = self._alive_cache[(src, dst)] = tuple(
            every[i] for i, a in live if out[a])
        return alive

    def _all_choices(self, stages: list) -> tuple:
        """Every stage-index combination of a plan's stages."""
        widths = tuple(len(stage) for stage in stages)
        combos = self._combos.get(widths)
        if combos is None:
            combos = self._combos[widths] = tuple(
                product(*(range(w) for w in widths)))
        return combos

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
