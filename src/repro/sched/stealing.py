"""Inter-village work-stealing policies.

When a village core finds its own RQ empty, its :class:`StealPolicy`
decides which peer (from the village's configured ``steal_from`` list)
to take a READY entry from.  The stolen entry keeps its home RQ — the
owner village's queue records the dequeue, wakeups and completion — so
every conservation ledger still balances at the owner; only execution
migrates, and the thief pays the configured steal latency.

Policies are deterministic: peer-list order (fixed at build time from a
seeded permutation) breaks every tie.
"""

from __future__ import annotations

from typing import Optional


class StealPolicy:
    """Base: pick a victim among ``village.steal_from`` and dequeue."""

    name = "base"

    def steal(self, village, core) -> Optional[object]:
        """Take one READY entry from a peer for ``core`` to run.

        Returns:
            The dequeued record (still owned by its home RQ), or None
            when no peer has ready work.
        """
        raise NotImplementedError


class FirstPeerSteal(StealPolicy):
    """Steal from the first peer (in list order) with ready work —
    the original village behaviour, cheapest to evaluate in hardware."""

    name = "first"

    def steal(self, village, core) -> Optional[object]:
        for other in village.steal_from:
            rec = other.rq.dequeue()
            if rec is not None:
                return rec
        return None


class MaxLoadSteal(StealPolicy):
    """Steal from the most-loaded peer.

    Peers are ranked by RQ backlog (slot + soft entries); the deepest
    queue is raided first, which levels load instead of repeatedly
    draining whichever peer happens to sit first in the list.  Ties
    keep peer-list order.  A victim whose backlog is all blocked
    entries yields None and the next-deepest peer is tried.
    """

    name = "maxload"

    @staticmethod
    def _backlog(village) -> int:
        rq = village.rq
        return rq.occupancy + rq.soft_entries

    def steal(self, village, core) -> Optional[object]:
        peers = village.steal_from
        ranked = sorted(range(len(peers)),
                        key=lambda i: (-self._backlog(peers[i]), i))
        for i in ranked:
            other = peers[i]
            if self._backlog(other) == 0:
                break              # remaining peers are empty too
            rec = other.rq.dequeue()
            if rec is not None:
                return rec
        return None


#: Shared stateless singletons.
FIRST_STEAL = FirstPeerSteal()
MAXLOAD_STEAL = MaxLoadSteal()

STEAL_POLICIES = {"first": FIRST_STEAL, "maxload": MAXLOAD_STEAL}

#: The registered policy names (the CLI's ``--steal`` choices, plus
#: ``off``, the default of ``SystemConfig.steal``).
STEAL_NAMES = tuple(sorted(STEAL_POLICIES))


def get_steal_policy(name: str) -> StealPolicy:
    try:
        return STEAL_POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown steal policy {name!r}; "
                         f"known: {sorted(STEAL_POLICIES)}") from None
