"""The invariant sanitizer: a race/leak-sanitizer analogue for the sim.

The off-switch mirrors the telemetry tracer's: every
:class:`~repro.sim.engine.Engine` carries a
:class:`~repro.check.null.NullCheckContext` (in its own module, so the
kernel never loads this one) whose only member is ``enabled = False``.
Instrumentation sites guard with ``if check.enabled:`` and pay one
attribute load + branch when checking is off; the hooks are never
called then.

:class:`CheckContext` is the live sanitizer and the one definition of
the hook protocol.  Hooks validate local invariants as events happen
(clock monotonicity, RQ structure, resource occupancy bounds) and feed
conservation ledgers that :meth:`CheckContext.finalize` balances at
drain time (request conservation per service and per queue, resource
leaks, ICN message conservation, span-tree well-formedness).

The sanitizer never mutates simulation state and draws no random
numbers, so a checked run is byte-identical to an unchecked one —
``tests/test_check.py`` pins that contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


class CheckError(AssertionError):
    """Raised when a strict :class:`CheckContext` found violations."""


@dataclass(frozen=True)
class Violation:
    """One invariant violation, stamped with where/when it was seen."""

    category: str          # e.g. "rq-structure", "conservation", "clock"
    message: str
    where: str = ""        # component name (queue, resource, ...)
    time_ns: Optional[float] = None

    def __str__(self) -> str:
        at = f" @ {self.time_ns:.0f}ns" if self.time_ns is not None else ""
        site = f" [{self.where}]" if self.where else ""
        return f"{self.category}{site}{at}: {self.message}"


#: The types a strict check accepts as the engine clock (see
#: :meth:`CheckContext.clock_advance`).
_CLOCK_TYPES = (float, int)


@dataclass
class _RqLedger:
    """Per-queue conservation counters (one per RequestQueue seen)."""

    rq: object
    admits: int = 0
    soft_admits: int = 0
    completes: int = 0
    stale_completes: int = 0
    purged: int = 0
    ops: int = 0


@dataclass
class _NetLedger:
    """Per-network ICN message conservation counters."""

    net: object
    sends: int = 0
    delivers: int = 0
    inflight_drops: int = 0
    noroute_drops: int = 0


@dataclass
class _ServiceLedger:
    """Per-service request conservation counters."""

    created: int = 0
    admits: int = 0
    completes: int = 0
    rejected: int = 0


@dataclass
class CheckStats:
    """How much checking happened (for ``repro validate`` reporting)."""

    checks: int = 0
    structural_scans: int = 0


class CheckContext:
    """The live sanitizer for one simulation run.

    The public methods from :meth:`clock_advance` to :meth:`finalize`
    are the hook protocol; instrumentation calls each one only behind an
    ``if check.enabled:`` guard.

    Args:
        strict: When True (default) :meth:`raise_if_violations` is
            expected to be called by the harness at drain — the
            cluster does this automatically.
        fail_fast: Raise :class:`CheckError` at the *first* violation
            instead of collecting (handy when debugging under pdb).
        sample_every: Run the O(occupancy) structural RQ scan every
            N-th queue operation per queue (cheap O(1) bounds checks
            run on every operation regardless).
    """

    def __init__(self, strict: bool = True, fail_fast: bool = False,
                 sample_every: int = 256):
        self.enabled = True
        self.strict = strict
        self.fail_fast = fail_fast
        self.sample_every = max(1, int(sample_every))
        self.violations: List[Violation] = []
        self.stats = CheckStats()
        self._last_now: float = float("-inf")
        self._rqs: Dict[int, _RqLedger] = {}
        self._nets: Dict[int, _NetLedger] = {}
        self._resources: List[object] = []
        self._services: Dict[str, _ServiceLedger] = {}
        self._roots_offered = 0
        self._roots_done: Dict[str, int] = {}
        self._faults_applied = 0
        self._nic_rejects = 0
        self._steals_seen = 0
        self._bypasses_seen = 0
        self._lb_routed: Dict[int, int] = {}
        self._lb_scales = 0
        self._hybrid_commits = 0
        self._hybrid_aborts = 0
        self._hybrid_roots_elided = 0
        self._hybrid_calls_elided = 0
        self._finalized = False

    # ------------------------------------------------------------ reporting

    def violation(self, category: str, message: str, where: str = "",
                  time_ns: Optional[float] = None) -> None:
        """Record one violation (raises immediately under ``fail_fast``)."""
        v = Violation(category, message, where, time_ns)
        self.violations.append(v)
        if self.fail_fast:
            raise CheckError(str(v))

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violations(self) -> None:
        """Raise :class:`CheckError` listing every recorded violation."""
        if self.violations:
            lines = "\n".join(f"  - {v}" for v in self.violations)
            raise CheckError(
                f"{len(self.violations)} invariant violation(s) "
                f"after {self.stats.checks} checks:\n{lines}")

    def report(self) -> str:
        """One-line human summary of the run's checking."""
        if self.violations:
            return (f"FAIL: {len(self.violations)} violation(s) in "
                    f"{self.stats.checks} checks")
        return (f"ok: {self.stats.checks} checks, "
                f"{self.stats.structural_scans} structural scans, "
                f"0 violations")

    # --------------------------------------------------------------- engine

    def clock_advance(self, old_ns: float, new_ns: float) -> None:
        """The engine clock is about to move from ``old_ns`` to ``new_ns``."""
        self.stats.checks += 1
        if new_ns < old_ns:
            self.violation(
                "clock", f"engine clock moved backwards: {old_ns} -> "
                f"{new_ns}", where="engine", time_ns=old_ns)
        if self.strict and type(new_ns) not in _CLOCK_TYPES:
            # A numpy scalar on the clock is exact but slow: every heap
            # comparison and time sum after it runs numpy's scalar code.
            self.violation(
                "clock", f"engine clock set to a "
                f"{type(new_ns).__module__}.{type(new_ns).__name__} "
                f"({new_ns!r}), not a Python float", where="engine",
                time_ns=old_ns)
        self._last_now = max(self._last_now, new_ns)

    # -------------------------------------------------------- request queue

    def _ledger(self, rq) -> _RqLedger:
        led = self._rqs.get(id(rq))
        if led is None:
            led = self._rqs[id(rq)] = _RqLedger(rq)
        return led

    def _service(self, name: str) -> _ServiceLedger:
        led = self._services.get(name)
        if led is None:
            led = self._services[name] = _ServiceLedger()
        return led

    def _rq_now(self, rq) -> Optional[float]:
        clock = getattr(rq, "clock", None)
        return clock.now if clock is not None else None

    def _rq_cheap(self, rq, led: _RqLedger) -> None:
        """O(1) bounds checks run on every queue operation."""
        self.stats.checks += 1
        if not 0 <= rq.occupancy <= rq.capacity:
            self.violation(
                "rq-structure",
                f"occupancy {rq.occupancy} outside [0, {rq.capacity}]",
                where=rq.name, time_ns=self._rq_now(rq))
        if rq.soft_entries < 0:
            self.violation(
                "rq-structure", f"soft_entries negative "
                f"({rq.soft_entries})", where=rq.name,
                time_ns=self._rq_now(rq))
        led.ops += 1
        if led.ops % self.sample_every == 0:
            self._rq_structural(rq)

    def _rq_structural(self, rq) -> None:
        """O(occupancy + heap) structural scan of one queue's window.

        The queue stores only its live window, so no entry can survive
        outside it once the head passes; the scan covers the window.
        """
        from repro.core.request import RequestStatus

        self.stats.structural_scans += 1
        now = self._rq_now(rq)
        window = rq.entries()
        live = 0
        for pos, entry in enumerate(window):
            if entry is None:
                self.violation(
                    "rq-structure", f"hole in live window at slot {pos}",
                    where=rq.name, time_ns=now)
                continue
            live += 1
            if not isinstance(entry.status, RequestStatus):
                self.violation(
                    "rq-structure", f"slot {pos} has invalid status "
                    f"{entry.status!r}", where=rq.name, time_ns=now)
        if live != rq.occupancy:
            self.violation(
                "rq-structure", f"window holds {live} entries but "
                f"occupancy is {rq.occupancy}", where=rq.name, time_ns=now)
        # Every READY slot entry must be reachable through the ready
        # heap, and every READY heap entry must point at a live slot
        # or soft entry of the current epoch (no ghosts).
        heap_ids = {id(r) for __, __id, r in rq._ready_heap}
        for entry in window:
            if entry is not None and entry.status is RequestStatus.READY \
                    and id(entry) not in heap_ids:
                self.violation(
                    "rq-structure", f"READY entry {entry.req_id} missing "
                    f"from the ready heap", where=rq.name, time_ns=now)
        slot_ids = {id(e) for e in window if e is not None}
        for __, __id, entry in rq._ready_heap:
            if entry.status is not RequestStatus.READY:
                continue          # lazily-invalidated entry, fine
            if entry._rq_epoch != rq.epoch:
                self.violation(
                    "rq-structure", f"stale-epoch entry {entry.req_id} "
                    f"in the ready heap", where=rq.name, time_ns=now)
            elif not entry._rq_soft and id(entry) not in slot_ids:
                self.violation(
                    "rq-structure", f"ghost READY heap entry "
                    f"{entry.req_id} holds no slot", where=rq.name,
                    time_ns=now)

    def rq_admit(self, rq, rec, soft: bool = False) -> None:
        """An entry was admitted (slot or NIC-buffered soft entry)."""
        led = self._ledger(rq)
        led.admits += 1
        if soft:
            led.soft_admits += 1
        self._service(rec.service).admits += 1
        self._rq_cheap(rq, led)

    def rq_dequeue(self, rq, rec) -> None:
        """A READY entry was atomically dequeued for execution."""
        from repro.core.request import RequestStatus

        led = self._ledger(rq)
        self.stats.checks += 1
        if rec.status is not RequestStatus.RUNNING:
            self.violation(
                "rq-dispatch", f"dequeued entry {rec.req_id} not RUNNING "
                f"({rec.status})", where=rq.name, time_ns=self._rq_now(rq))
        if rec._rq_epoch != rq.epoch:
            self.violation(
                "rq-dispatch", f"dequeued stale-epoch entry {rec.req_id}",
                where=rq.name, time_ns=self._rq_now(rq))
        self._rq_cheap(rq, led)

    def rq_wakeup(self, rq, rec) -> None:
        """A blocked entry went back to READY."""
        self._rq_cheap(rq, self._ledger(rq))

    def rq_complete(self, rq, rec, stale: bool = False) -> None:
        """An entry finished (``stale`` = it predates the last purge)."""
        led = self._ledger(rq)
        if stale:
            led.stale_completes += 1
        else:
            led.completes += 1
            self._service(rec.service).completes += 1
        self._rq_cheap(rq, led)

    def rq_purge(self, rq) -> None:
        """The queue is about to be wiped (village failure): count the
        live entries being lost."""
        from repro.core.request import RequestStatus

        led = self._ledger(rq)
        dropped = rq.soft_entries
        for entry in rq.entries():
            if entry is not None \
                    and entry.status is not RequestStatus.FINISHED:
                dropped += 1
        led.purged += dropped
        self._rq_cheap(rq, led)

    # -------------------------------------------------- scheduling policies

    def rq_steal(self, village, rec) -> None:
        """``village`` stole a READY entry from a peer's queue."""
        self.stats.checks += 1
        self._steals_seen += 1
        from repro.core.request import RequestStatus

        if rec.status is not RequestStatus.RUNNING:
            self.violation(
                "steal", f"stolen entry {rec.req_id} not RUNNING "
                f"({rec.status})", where=village.name,
                time_ns=village.engine.now)
        if rec.village == village.village_id:
            self.violation(
                "steal", f"entry {rec.req_id} 'stolen' from its own "
                f"village", where=village.name, time_ns=village.engine.now)

    def core_bypass(self, village, rec) -> None:
        """An arrival skipped the scheduler onto an idle core."""
        self.stats.checks += 1
        self._bypasses_seen += 1
        from repro.core.request import RequestStatus

        if rec.status is not RequestStatus.RUNNING:
            self.violation(
                "bypass", f"bypassed entry {rec.req_id} not RUNNING "
                f"({rec.status})", where=village.name,
                time_ns=village.engine.now)
        if rec.village != village.village_id:
            self.violation(
                "bypass", f"entry {rec.req_id} bypassed onto a foreign "
                f"village", where=village.name, time_ns=village.engine.now)

    # ----------------------------------------------------------------- NICs

    def nic_dispatch(self, nic, service: str, village: int) -> None:
        """The ServiceMap picked ``village`` for ``service``."""
        self.stats.checks += 1
        registered = nic._service_map.get(service, [])
        if village not in registered:
            self.violation(
                "servicemap", f"dispatched {service!r} to unregistered "
                f"village {village}", where=nic.name)
        if village in nic._down:
            self.violation(
                "servicemap", f"dispatched {service!r} to village "
                f"{village} marked down", where=nic.name)

    def nic_reject(self, nic) -> None:
        """The top-level NIC overflow buffer rejected a request."""
        self.stats.checks += 1
        self._nic_rejects += 1
        if len(nic._buffer) > nic.buffer_capacity:
            self.violation(
                "nic-buffer", f"overflow buffer holds {len(nic._buffer)} "
                f"> capacity {nic.buffer_capacity}", where=nic.name)

    def nic_drop(self, nic) -> None:
        """A failed village NIC blackholed a message."""
        self.stats.checks += 1
        if not nic.failed:
            self.violation(
                "nic-drop", "healthy NIC dropped a message",
                where=nic.name)

    # ------------------------------------------------------------------ ICN

    def _net(self, net) -> _NetLedger:
        led = self._nets.get(id(net))
        if led is None:
            led = self._nets[id(net)] = _NetLedger(net)
        return led

    def icn_send(self, net) -> None:
        """A routed message entered the ICN (multi-hop sends only)."""
        self.stats.checks += 1
        self._net(net).sends += 1

    def icn_deliver(self, net) -> None:
        """A routed message reached its destination."""
        self.stats.checks += 1
        self._net(net).delivers += 1

    def icn_drop(self, net, in_flight: bool) -> None:
        """A message blackholed (``in_flight`` = after entering the ICN)."""
        self.stats.checks += 1
        led = self._net(net)
        if in_flight:
            led.inflight_drops += 1
        else:
            led.noroute_drops += 1

    # ------------------------------------------------------------ resources

    def resource_register(self, res) -> None:
        """A FIFO resource was created (for drain-time leak checks)."""
        self._resources.append(res)

    def resource_event(self, res) -> None:
        """A resource started or finished a job."""
        self.stats.checks += 1
        if not 0 <= res.busy <= res.capacity:
            self.violation(
                "resource", f"busy {res.busy} outside [0, {res.capacity}]",
                where=res.name, time_ns=res.engine.now)

    # --------------------------------------------------------------- RPC

    def request_created(self, rec) -> None:
        """A request record (root or child RPC) was created."""
        self.stats.checks += 1
        self._service(rec.service).created += 1
        if rec.depth < 0 or not rec.segments:
            self.violation(
                "request", f"request {rec.req_id} malformed "
                f"(depth={rec.depth}, {len(rec.segments)} segments)")

    def ext_rejected(self, rec) -> None:
        """An external request was rejected (error response sent)."""
        self.stats.checks += 1
        self._service(rec.service).rejected += 1

    # ---------------------------------------------------------- root ledger

    def root_offered(self, n: int = 1) -> None:
        """``n`` client arrivals were scheduled (bulk increment: the
        arrival paths schedule whole vectorized batches at once)."""
        self._roots_offered += n

    def root_done(self, kind: str) -> None:
        """A root request was answered (completed/rejected/failed)."""
        self.stats.checks += 1
        self._roots_done[kind] = self._roots_done.get(kind, 0) + 1

    # ------------------------------------------------------- datacenter tier

    def lb_route(self, lb, server_id: int, active: bool) -> None:
        """The front-end LB routed one root request to ``server_id``."""
        self.stats.checks += 1
        self._lb_routed[server_id] = self._lb_routed.get(server_id, 0) + 1
        if not active:
            self.violation(
                "lb-route", f"root routed to drained server {server_id}",
                where="lb")
        if not 0 <= server_id < lb.n_servers:
            self.violation(
                "lb-route", f"routed to out-of-range server {server_id}",
                where="lb")

    def lb_scale(self, lb, action: str, server_id: int) -> None:
        """The autoscaler activated ("add") or drained a server."""
        self.stats.checks += 1
        self._lb_scales += 1
        if action not in ("add", "drain"):
            self.violation(
                "lb-scale", f"unknown scale action {action!r}", where="lb")
        if not lb.active_ids:
            self.violation(
                "lb-scale", "scaling emptied the active server set",
                where="lb")

    # ------------------------------------------------------ hybrid fast path

    def hybrid_commit(self, service: str) -> None:
        """The controller committed ``service`` to analytic mode."""
        self.stats.checks += 1
        self._hybrid_commits += 1

    def hybrid_abort(self, reason: str) -> None:
        """The controller aborted back to detailed simulation."""
        self.stats.checks += 1
        self._hybrid_aborts += 1

    def hybrid_elide_root(self) -> None:
        """A root request completed analytically (no per-event sim)."""
        self.stats.checks += 1
        self._hybrid_roots_elided += 1

    def hybrid_elide_call(self, service: str) -> None:
        """A downstream RPC was answered analytically."""
        self.stats.checks += 1
        self._hybrid_calls_elided += 1

    # --------------------------------------------------------------- faults

    def fault_applied(self, event, now_ns: float) -> None:
        """The injector applied a fault event."""
        self.stats.checks += 1
        self._faults_applied += 1
        if now_ns != event.time_ns:
            self.violation(
                "faults", f"{event.kind}/{event.action} applied at "
                f"{now_ns} but scheduled for {event.time_ns}",
                time_ns=now_ns)

    # -------------------------------------------------------------- compute

    def compute_segment(self, village, rec, duration_ns: float) -> None:
        """A compute segment was scheduled for ``duration_ns``."""
        self.stats.checks += 1
        if duration_ns < 0:
            self.violation(
                "compute", f"negative segment duration {duration_ns} "
                f"for request {rec.req_id}", where=village.name,
                time_ns=village.engine.now)

    # ------------------------------------------------------------- finalize

    def finalize(self, sim=None, drained: bool = True) -> List[Violation]:
        """Balance every ledger after the engine drained.

        Args:
            sim: The :class:`~repro.systems.cluster.ClusterSimulation`
                (enables the cross-layer root/service/span checks); the
                queue/resource/network ledgers balance without it.
            drained: False when the run was truncated (``max_events``)
                — drain-only balance checks are skipped then.

        Returns:
            The full violation list (also kept on ``self.violations``).
        """
        if self._finalized:
            return self.violations
        self._finalized = True
        from repro.core.request import RequestStatus

        purged_anywhere = False
        for led in self._rqs.values():
            rq = led.rq
            self._rq_structural(rq)
            purged_anywhere = purged_anywhere or led.purged > 0
            if not drained:
                continue
            live = rq.soft_entries
            for entry in rq.entries():
                if entry is not None \
                        and entry.status is not RequestStatus.FINISHED:
                    live += 1
            balance = led.completes + led.purged + live
            if led.admits != balance:
                self.violation(
                    "conservation",
                    f"request ledger unbalanced: {led.admits} admitted != "
                    f"{led.completes} completed + {led.purged} purged + "
                    f"{live} live", where=rq.name)

        if drained:
            for res in self._resources:
                self.stats.checks += 1
                if res.busy != 0:
                    self.violation(
                        "resource-leak", f"{res.busy} job(s) never "
                        f"released at drain", where=res.name)
                if res.queue_length != 0:
                    self.violation(
                        "resource-leak", f"{res.queue_length} job(s) "
                        f"still queued at drain", where=res.name)
            for net_led in self._nets.values():
                self.stats.checks += 1
                if net_led.sends != net_led.delivers \
                        + net_led.inflight_drops:
                    self.violation(
                        "conservation",
                        f"ICN messages unbalanced: {net_led.sends} sent "
                        f"!= {net_led.delivers} delivered + "
                        f"{net_led.inflight_drops} dropped in flight",
                        where="icn")
                queued = net_led.net.queued_messages()
                if queued != 0:
                    self.violation(
                        "conservation",
                        f"ICN queue gauge reads {queued} at drain",
                        where="icn")

        if sim is not None:
            self._finalize_sim(sim, drained, purged_anywhere)
        return self.violations

    def _finalize_sim(self, sim, drained: bool,
                      purged_anywhere: bool) -> None:
        """Cross-layer checks that need the assembled cluster."""
        faulted = getattr(sim, "faults", None) is not None
        if drained:
            completed = len(sim.recorder)
            answered = completed + sim.rejected + sim.failed
            self.stats.checks += 1
            if sim.offered != answered:
                self.violation(
                    "conservation",
                    f"root requests unbalanced: {sim.offered} offered != "
                    f"{completed} completed + {sim.rejected} rejected + "
                    f"{sim.failed} failed", where="cluster")
            if self._roots_offered != sim.offered:
                self.violation(
                    "conservation",
                    f"arrival hook count {self._roots_offered} != "
                    f"cluster offered counter {sim.offered}",
                    where="cluster")
            hook_done = sum(self._roots_done.values())
            if hook_done != answered:
                self.violation(
                    "conservation",
                    f"root completion hooks {hook_done} != cluster "
                    f"answered counters {answered}", where="cluster")
            for server in sim.servers:
                self.stats.checks += 1
                if server.top_nic.buffered != 0:
                    self.violation(
                        "conservation", f"{server.top_nic.buffered} "
                        f"request(s) stranded in the NIC overflow buffer",
                        where=server.top_nic.name)
        lb = getattr(sim, "lb", None)
        if lb is not None and drained:
            # LB conservation ledger: every arrival was routed exactly
            # once, the hook counts agree with the LB's own counters,
            # each server answered precisely what was routed to it (so
            # no request is lost across an autoscale drain), and no
            # root is still outstanding after the engine drained.
            self.stats.checks += 1
            hook_routed = sum(self._lb_routed.values())
            if hook_routed != sim.offered:
                self.violation(
                    "conservation", f"lb route hooks {hook_routed} != "
                    f"cluster offered counter {sim.offered}", where="lb")
            for sid in range(lb.n_servers):
                self.stats.checks += 1
                if self._lb_routed.get(sid, 0) != lb.routed[sid]:
                    self.violation(
                        "conservation",
                        f"server {sid}: lb routed counter "
                        f"{lb.routed[sid]} != route hooks seen "
                        f"{self._lb_routed.get(sid, 0)}", where="lb")
                answered = sim.server_answered[sid]
                if lb.routed[sid] != answered:
                    self.violation(
                        "conservation",
                        f"server {sid}: {lb.routed[sid]} roots routed != "
                        f"{answered} answered (request lost across a "
                        f"drain?)", where="lb")
                if lb.outstanding[sid] != 0:
                    self.violation(
                        "conservation",
                        f"server {sid}: {lb.outstanding[sid]} root(s) "
                        f"still outstanding at drain", where="lb")
            scaler = getattr(sim, "autoscaler", None)
            if scaler is not None:
                self.stats.checks += 1
                if len(scaler.events) != self._lb_scales:
                    self.violation(
                        "conservation",
                        f"autoscaler logged {len(scaler.events)} events "
                        f"but the checker saw {self._lb_scales}",
                        where="lb")
        hybrid = getattr(sim, "hybrid", None)
        if hybrid is not None:
            # Hybrid fast-path ledger: the controller's own counters and
            # the hook counts must agree, an elided completion exists for
            # every elided root (they feed the same recorder/root_done
            # paths, so the root ledger above already balances), and a
            # committed run under faults/autoscaling is forbidden.
            self.stats.checks += 1
            if hybrid.commits != self._hybrid_commits:
                self.violation(
                    "hybrid", f"controller committed {hybrid.commits} "
                    f"service(s) but the checker saw "
                    f"{self._hybrid_commits}", where="hybrid")
            if hybrid.aborts != self._hybrid_aborts:
                self.violation(
                    "hybrid", f"controller aborted {hybrid.aborts} "
                    f"time(s) but the checker saw {self._hybrid_aborts}",
                    where="hybrid")
            if hybrid.roots_elided != self._hybrid_roots_elided:
                self.violation(
                    "hybrid", f"controller elided {hybrid.roots_elided} "
                    f"root(s) but the checker saw "
                    f"{self._hybrid_roots_elided}", where="hybrid")
            if hybrid.calls_elided != self._hybrid_calls_elided:
                self.violation(
                    "hybrid", f"controller elided {hybrid.calls_elided} "
                    f"call(s) but the checker saw "
                    f"{self._hybrid_calls_elided}", where="hybrid")
            if hybrid.committed and (getattr(sim, "injector", None)
                                     is not None
                                     or getattr(sim, "autoscaler", None)
                                     is not None):
                self.violation(
                    "hybrid", "services still committed in a faulted/"
                    "autoscaled run (structural guard failed)",
                    where="hybrid")
        injector = getattr(sim, "injector", None)
        if injector is not None:
            self.stats.checks += 1
            if injector.injected != self._faults_applied:
                self.violation(
                    "faults", f"injector applied {injector.injected} "
                    f"events but the checker saw {self._faults_applied}")
        # Policy counters are increment-only: the village counters must
        # match the hook counts exactly, faulted or not.
        steals = sum(v.steals for s in sim.servers for v in s.villages)
        bypasses = sum(v.bypasses for s in sim.servers for v in s.villages)
        self.stats.checks += 2
        if steals != self._steals_seen:
            self.violation(
                "conservation", f"village steal counters {steals} != "
                f"steal hooks seen {self._steals_seen}", where="cluster")
        if bypasses != self._bypasses_seen:
            self.violation(
                "conservation", f"village bypass counters {bypasses} != "
                f"bypass hooks seen {self._bypasses_seen}", where="cluster")
        if drained and not faulted and not purged_anywhere:
            self._finalize_fault_free(sim)
        tracer = getattr(sim, "tracer", None)
        if tracer is not None and getattr(tracer, "enabled", False):
            from repro.check.spans import check_span_tree

            # Faulted runs legitimately strand blackholed roots open.
            for v in check_span_tree(tracer,
                                     require_closed=drained and not faulted,
                                     strict_nesting=not faulted):
                self.violation(v.category, v.message, v.where, v.time_ns)

    def _finalize_fault_free(self, sim) -> None:
        """Stricter balances that only hold without fault injection."""
        for name, led in sorted(self._services.items()):
            self.stats.checks += 1
            if led.created != led.admits + led.rejected:
                self.violation(
                    "conservation",
                    f"service {name!r}: {led.created} created != "
                    f"{led.admits} admitted + {led.rejected} rejected")
            if led.admits != led.completes:
                self.violation(
                    "conservation",
                    f"service {name!r}: {led.admits} admitted != "
                    f"{led.completes} completed at drain")
        total_completes = sum(led.completes for led in self._rqs.values())
        village_completed = sum(v.completed for s in sim.servers
                                for v in s.villages)
        self.stats.checks += 1
        if total_completes != village_completed:
            self.violation(
                "conservation",
                f"RQ complete count {total_completes} != village "
                f"completed counters {village_completed}")
        for server in sim.servers:
            for village in server.villages:
                for core in village.cores:
                    self.stats.checks += 1
                    if core.busy:
                        self.violation(
                            "core-leak", f"core {core.core_id} still "
                            f"busy at drain", where=village.name)
