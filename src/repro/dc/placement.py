"""Service placement/replication across the servers of one cluster.

A :class:`PlacementPlan` decides which servers host an instance of each
service.  The assignment is a deterministic stripe over the sorted
service names — service *i* lands on servers ``(i + j) % n`` for ``j``
in ``range(replication)`` — so the same (services, n_servers,
replication) always produces the same plan and sweep-cache keys stay
content-addressed.

Root services are pinned to every server: the front-end LB must be free
to route any root anywhere (a stateless front-end tier).  Leaf RPCs to
a service with no local replica are proxied cross-server by
:meth:`repro.systems.server.Server._pick_callee` over the existing
inter-server fabric path.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, Sequence, Tuple


class PlacementPlan:
    """Which servers host which services (immutable once built)."""

    def __init__(self, assignment: Dict[str, Tuple[int, ...]],
                 n_servers: int):
        self.n_servers = n_servers
        self._servers_for = dict(assignment)
        hosted: Dict[int, set] = {sid: set() for sid in range(n_servers)}
        for name, sids in assignment.items():
            if not sids:
                raise ValueError(f"service {name!r} has no hosting server")
            for sid in sids:
                if not 0 <= sid < n_servers:
                    raise ValueError(f"service {name!r} placed on invalid "
                                     f"server {sid}")
                hosted[sid].add(name)
        self._hosted: Dict[int, FrozenSet[str]] = {
            sid: frozenset(names) for sid, names in hosted.items()}

    @classmethod
    def build(cls, services: Sequence[str], roots: Collection[str],
              n_servers: int, replication: int) -> "PlacementPlan":
        """Stripe ``services`` over ``n_servers`` with ``replication``
        copies each (0 or >= n_servers = everywhere); ``roots`` are
        always placed everywhere."""
        everywhere = tuple(range(n_servers))
        k = n_servers if replication <= 0 else min(replication, n_servers)
        assignment: Dict[str, Tuple[int, ...]] = {}
        for i, name in enumerate(sorted(set(services))):
            if name in roots or k >= n_servers:
                assignment[name] = everywhere
            else:
                assignment[name] = tuple(sorted(
                    (i + j) % n_servers for j in range(k)))
        return cls(assignment, n_servers)

    def servers_for(self, service: str) -> Tuple[int, ...]:
        """Sorted server ids hosting an instance of ``service``."""
        return self._servers_for[service]

    def services_on(self, server_id: int) -> FrozenSet[str]:
        """The services server ``server_id`` hosts locally."""
        return self._hosted[server_id]

    def is_local(self, server_id: int, service: str) -> bool:
        """Whether ``service`` has a replica on ``server_id``."""
        return service in self._hosted[server_id]
