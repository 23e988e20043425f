"""The front-end load balancer and its pluggable routing policies.

A :class:`FrontEndLB` sits in front of the whole cluster: every external
arrival enters through it and is routed to one *active* server.  The
policy layer mirrors :mod:`repro.sched.dispatch` — a name->factory
registry, deterministic tie-breaking, and per-LB policy instances so
rotation pointers and spill counters are private to one run.

Policies see the LB itself (for the outstanding-request counters the
load-aware policies rank by) plus the pre-filtered active-server list,
and must return one of the active ids.  ``rr`` keys its rotation on the
full server-id space, so a server draining (or coming back) never
shifts which server the surviving rotation hands to everyone else —
the same phase-stability property as the ServiceMap round-robin.
"""

from __future__ import annotations

from typing import List, Optional

from repro.check.null import NULL_CHECK


class LBPolicy:
    """Base: pick one active server for an arriving root request."""

    name = "base"
    #: Policies that draw random numbers get the run's dedicated "lb"
    #: RNG stream; declared so the cluster only creates it when needed.
    needs_rng = False

    def choose(self, lb: "FrontEndLB", service: str,
               active: List[int]) -> int:
        raise NotImplementedError


class RoundRobinLB(LBPolicy):
    """Rotate over the server-id space, skipping drained servers."""

    name = "rr"

    def __init__(self):
        self._next = 0

    def choose(self, lb: "FrontEndLB", service: str,
               active: List[int]) -> int:
        n = lb.n_servers
        for i in range(n):
            sid = (self._next + i) % n
            if lb.is_active(sid):
                self._next = (sid + 1) % n
                return sid
        return active[0]


class RandomLB(LBPolicy):
    """Uniformly-random active server."""

    name = "random"
    needs_rng = True

    def choose(self, lb: "FrontEndLB", service: str,
               active: List[int]) -> int:
        return active[int(lb.rng.integers(len(active)))]


class PowerOfTwoLB(LBPolicy):
    """Power-of-two-choices: sample two distinct active servers, join
    the one with fewer outstanding requests (ties to the lower id)."""

    name = "p2c"
    needs_rng = True

    def choose(self, lb: "FrontEndLB", service: str,
               active: List[int]) -> int:
        k = len(active)
        if k == 1:
            return active[0]
        i = int(lb.rng.integers(k))
        j = int(lb.rng.integers(k - 1))
        if j >= i:
            j += 1
        a, b = active[i], active[j]
        if a > b:
            a, b = b, a
        return b if lb.outstanding[b] < lb.outstanding[a] else a


class LeastOutstandingLB(LBPolicy):
    """Join the active server with the fewest outstanding root requests
    (ties to the lowest server id)."""

    name = "least"

    def choose(self, lb: "FrontEndLB", service: str,
               active: List[int]) -> int:
        outstanding = lb.outstanding
        best = active[0]
        best_out = outstanding[best]
        for sid in active[1:]:
            out = outstanding[sid]
            if out < best_out:
                best, best_out = sid, out
        return best


class AffinityLB(LBPolicy):
    """Request-type affinity with load-based spill (Affinity Tailor).

    Every request type (keyed on the root service name) has a *home*
    server — a stable hash over the server-id space, walked forward to
    the first active id — and keeps landing there (warm caches, resident
    state) until the home holds more than ``spill_margin`` outstanding
    requests above the least-loaded active server; then the request
    spills to that least-loaded server instead.
    """

    name = "affinity"

    def __init__(self, spill_margin: int = 4):
        if spill_margin < 0:
            raise ValueError("spill_margin must be >= 0")
        self.spill_margin = spill_margin
        self.spills = 0

    def _home(self, lb: "FrontEndLB", service: str) -> Optional[int]:
        from zlib import crc32

        start = crc32(service.encode()) % lb.n_servers
        for i in range(lb.n_servers):
            sid = (start + i) % lb.n_servers
            if lb.is_active(sid):
                return sid
        return None

    def choose(self, lb: "FrontEndLB", service: str,
               active: List[int]) -> int:
        outstanding = lb.outstanding
        least = active[0]
        least_out = outstanding[least]
        for sid in active[1:]:
            out = outstanding[sid]
            if out < least_out:
                least, least_out = sid, out
        home = self._home(lb, service)
        if home is None:
            return least
        if outstanding[home] - least_out > self.spill_margin:
            self.spills += 1
            return least
        return home


#: name -> factory; every policy carries per-LB state, so each
#: FrontEndLB gets a fresh instance.
LB_FACTORIES = {
    "rr": RoundRobinLB,
    "random": RandomLB,
    "p2c": PowerOfTwoLB,
    "least": LeastOutstandingLB,
    "affinity": AffinityLB,
}


def get_lb_policy(name: str, spill_margin: int = 4) -> LBPolicy:
    """Instantiate one LB policy by registry name."""
    try:
        factory = LB_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown lb policy {name!r}; "
                         f"known: {sorted(LB_FACTORIES)}") from None
    if factory is AffinityLB:
        return factory(spill_margin)
    return factory()


class FrontEndLB:
    """The cluster's front door: routes every root request to a server.

    Tracks, per server: how many roots were routed there (increment-only,
    cross-checked against the :mod:`repro.check` ledger at drain) and how
    many are still outstanding (incremented on route, decremented when
    the root's answer — completed, rejected or failed — comes back; the
    load-aware policies rank by it).  The autoscaler activates/drains
    servers through :meth:`activate`/:meth:`drain`; a drained server
    receives no new roots but keeps serving its in-flight work and any
    cross-server leaf RPCs, so no request is ever lost to a scale-down.
    """

    def __init__(self, n_servers: int, policy: LBPolicy,
                 rng=None, check=NULL_CHECK):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if policy.needs_rng and rng is None:
            raise ValueError(f"lb policy {policy.name!r} needs an rng")
        self.n_servers = n_servers
        self.policy = policy
        self.rng = rng
        self.check = check
        self._active = [True] * n_servers
        self.outstanding = [0] * n_servers
        self.routed = [0] * n_servers
        self.activations = 0
        self.drains = 0

    # ------------------------------------------------------- active set

    def is_active(self, server_id: int) -> bool:
        return self._active[server_id]

    @property
    def active_ids(self) -> List[int]:
        """Sorted ids of the servers currently receiving new roots."""
        return [sid for sid, up in enumerate(self._active) if up]

    def activate(self, server_id: int) -> None:
        """Re-admit a drained server to the routing set."""
        if not self._active[server_id]:
            self._active[server_id] = True
            self.activations += 1

    def drain(self, server_id: int) -> None:
        """Stop routing new roots to a server (in-flight work finishes).

        Raises:
            ValueError: When this would empty the active set — the LB
                must always have somewhere to route.
        """
        if self._active[server_id] and sum(self._active) == 1:
            raise ValueError("cannot drain the last active server")
        if self._active[server_id]:
            self._active[server_id] = False
            self.drains += 1

    # ---------------------------------------------------------- routing

    def route(self, service: str) -> int:
        """Pick the server for one arriving root request."""
        sid = self.policy.choose(self, service, self.active_ids)
        self.routed[sid] += 1
        self.outstanding[sid] += 1
        if self.check.enabled:
            self.check.lb_route(self, sid, active=self._active[sid])
        return sid

    def request_done(self, server_id: int) -> None:
        """A routed root was answered (completed/rejected/failed)."""
        self.outstanding[server_id] -= 1
