"""Applies a :class:`~repro.faults.schedule.FaultSchedule` to a cluster.

The injector walks the schedule once at install time, turning every
fault event into an engine event at its absolute timestamp.  Applying a
fault is pure state flipping on the simulated components — villages,
cores, topology links, village NICs — so injection itself costs nothing
at simulation time and preserves event-order determinism.

Detection lag: the ServiceMap health checker (the top-level NIC) only
learns about a village failure/recovery ``schedule.detection_ns`` after
it happens.  Inside that window the dispatcher keeps sending requests
into the dead village; they blackhole, and the RPC layer's timeout and
retry machinery is what gets them re-served elsewhere.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Sequence

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim.engine import Engine


class FaultInjector:
    """Schedules and applies one fault schedule over a set of servers."""

    def __init__(self, engine: Engine, servers: Sequence,
                 schedule: FaultSchedule):
        """Bind a schedule to the cluster it will be injected into.

        Args:
            engine: The discrete-event engine events are scheduled on.
            servers: The cluster's server objects, indexed by server id.
            schedule: The fault schedule to apply (call :meth:`install`
                before running the engine).

        Raises:
            ValueError: an event targets a server, village, core, NIC or
                link the cluster does not have — raised here, before
                any event runs, rather than at the fault's time.
        """
        self.engine = engine
        self.servers = list(servers)
        self.schedule = schedule
        self.injected = 0
        self.by_kind: Dict[str, int] = {}
        self._installed = False
        for event in schedule.events:
            problem = self._target_problem(event)
            if problem:
                raise ValueError(f"bad fault target in {event}: {problem}")

    def _target_problem(self, event: FaultEvent) -> str:
        """Why ``event`` cannot be applied to this cluster ('' if it can)."""
        arity = {"village": 2, "core": 3, "link": 3, "nic": 3}[event.kind]
        target = event.target
        if len(target) != arity:
            return f"a {event.kind} target has {arity} fields"
        problem = _index_problem("server", target[0], len(self.servers))
        if problem:
            return problem
        server = self.servers[target[0]]
        if event.kind == "link":
            __, u, v = target
            if not server.topology.has_link(u, v):
                return f"server {target[0]} has no ICN link {u!r}->{v!r}"
            return ""
        problem = _index_problem("village", target[1], len(server.villages))
        if problem or event.kind == "village":
            return problem
        if event.kind == "core":
            return _index_problem(
                "core", target[2], len(server.villages[target[1]].cores))
        if target[2] not in ("lnic", "rnic"):
            return f"NIC must be 'lnic' or 'rnic', got {target[2]!r}"
        return ""

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Schedule every fault event (idempotent)."""
        if self._installed:
            return
        self._installed = True
        for event in self.schedule.events:
            self.engine.schedule_at(event.time_ns, self._apply, event)

    # -------------------------------------------------------------- apply

    def _apply(self, event: FaultEvent) -> None:
        server = self.servers[event.target[0]]
        handler = getattr(self, f"_apply_{event.kind}")
        handler(server, event)
        self.injected += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        check = self.engine.check
        if check.enabled:
            check.fault_applied(event, self.engine.now)

    def _apply_village(self, server, event: FaultEvent) -> None:
        __, village_id = event.target
        village = server.villages[village_id]
        lag = self.schedule.detection_ns
        if event.action == "fail":
            village.fail()
            self.engine.schedule(lag, server.top_nic.mark_village_down,
                                 village_id)
        elif event.action == "recover":
            village.recover()
            self.engine.schedule(lag, server.top_nic.mark_village_up,
                                 village_id)
        else:  # degrade — gray failure, invisible to the health checker
            village.degrade_factor = event.factor

    def _apply_core(self, server, event: FaultEvent) -> None:
        __, village_id, core_id = event.target
        village = server.villages[village_id]
        core = village.cores[core_id]
        if event.action == "fail":
            core.failed = True
        else:
            core.failed = False
            village._kick()

    def _apply_link(self, server, event: FaultEvent) -> None:
        __, u, v = event.target
        if event.action == "fail":
            server.topology.fail_link(u, v)
        else:
            server.topology.recover_link(u, v)

    def _apply_nic(self, server, event: FaultEvent) -> None:
        __, village_id, which = event.target
        nic = (server.lnics if which == "lnic" else server.rnics)[village_id]
        if event.action == "fail":
            nic.fail()
        else:
            nic.recover()

    # -------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Injection counters: events applied so far, by kind, and the
        schedule's size and detection lag."""
        return {"injected": self.injected, "by_kind": dict(self.by_kind),
                "scheduled": len(self.schedule),
                "detection_ns": self.schedule.detection_ns}


def _index_problem(what: str, index, count: int) -> str:
    """Why ``index`` is not one of ``count`` components ('' if it is)."""
    try:
        index = operator.index(index)
    except TypeError:
        return f"{what} index {index!r} is not an integer"
    if not 0 <= index < count:
        return f"{what} {index} is out of range (there are {count})"
    return ""


def fault_inventory(servers: Sequence) -> Dict[str, List]:
    """Enumerate every faultable component of a cluster — the input
    :meth:`FaultSchedule.random` draws from."""
    villages: List = []
    links: List = []
    nics: List = []
    for server in servers:
        sid = server.server_id
        for v in range(len(server.villages)):
            villages.append((sid, v))
            nics.append((sid, v, "lnic"))
            nics.append((sid, v, "rnic"))
        for (u, v) in server.topology.links:
            if u < v:      # links are bidirectional pairs; count each once
                links.append((sid, u, v))
    return {"villages": villages, "links": links, "nics": nics}
