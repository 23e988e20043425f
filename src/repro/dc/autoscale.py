"""Reactive autoscaling of server replicas from utilization telemetry.

The :class:`Autoscaler` samples mean active-server core utilization on
an engine-driven tick (the same self-rearming pattern as the metrics
registry: the tick only re-arms while the engine has *other* work
pending, so a drained simulation terminates naturally).  Decisions are
deterministic and event-driven — a pure function of the measured busy-ns
deltas at each tick, no wall clock and no random numbers — so checked
and unchecked runs of the same seed scale identically.

Scaling acts through the :class:`~repro.dc.lb.FrontEndLB` active set
only: a drain stops new roots, never kills in-flight work, and a
scale-up re-admits the lowest-id drained server.  The conservation
ledger in :mod:`repro.check` verifies at drain time that no request was
lost across these transitions.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.check.null import NULL_CHECK


class Autoscaler:
    """Adds/drains server replicas from windowed utilization."""

    def __init__(self, engine, lb, servers, dc, check=NULL_CHECK):
        self.engine = engine
        self.lb = lb
        self.servers = servers
        self.dc = dc
        self.check = check
        self.min_servers = min(dc.min_servers, len(servers))
        self.interval_ns = dc.autoscale_interval_ns
        self._last_busy = [0.0] * len(servers)
        self._last_ns = 0.0
        #: (time_ns, "add"|"drain", server_id, mean_utilization) log.
        self.events: List[Tuple[float, str, int, float]] = []
        self.scale_ups = 0
        self.scale_downs = 0

    def install(self) -> None:
        """Arm the periodic decision tick."""
        self.engine.schedule(self.interval_ns, self._tick)

    def _tick(self) -> None:
        now = self.engine.now
        window = now - self._last_ns
        if window > 0:
            self._decide(now, window)
        for sid, server in enumerate(self.servers):
            self._last_busy[sid] = server.busy_ns()
        self._last_ns = now
        if self.engine.peek_time() is not None:
            self.engine.schedule(self.interval_ns, self._tick)

    def _decide(self, now: float, window: float) -> None:
        active = self.lb.active_ids
        cores = self.servers[0].config.n_cores
        utils = [
            (self.servers[sid].busy_ns() - self._last_busy[sid])
            / (window * cores)
            for sid in active]
        mean = sum(utils) / len(utils)
        if mean > self.dc.scale_up_util:
            drained = [sid for sid in range(len(self.servers))
                       if not self.lb.is_active(sid)]
            if drained:
                self._apply(now, "add", drained[0], mean)
        elif mean < self.dc.scale_down_util \
                and len(active) > self.min_servers:
            # Drain the highest-id active server: scale-down peels from
            # the top, so the surviving set stays a stable prefix.
            self._apply(now, "drain", active[-1], mean)

    def _apply(self, now: float, action: str, sid: int,
               mean: float) -> None:
        if action == "add":
            self.lb.activate(sid)
            self.scale_ups += 1
        else:
            self.lb.drain(sid)
            self.scale_downs += 1
        self.events.append((now, action, sid, mean))
        if self.check.enabled:
            self.check.lb_scale(self.lb, action, sid)
