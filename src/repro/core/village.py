"""Village execution engine (Section 4.1): cores + shared L2 + RQ.

A village is the hardware cache-coherent unit: a handful of cores that
pull service requests from the village Request Queue.  The same class
also models the *queue domains* of the baselines (a 32-core ScaleOut
cluster sharing one software queue, or the whole 40-core ServerClass
processor) — the differences are the scheduler domain (hardware vs
software costs) and the domain size.

The village delegates workload semantics to an *executor* object
(implemented by :mod:`repro.systems.server`), which provides::

    segment_time_ns(rec, core) -> float   # compute time of current segment
    segment_done(rec, village, core)      # decide: block on a call / finish

and drives the village back through :meth:`block_for_call`,
:meth:`finish` and :meth:`make_ready`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.context_switch import SchedulerDomain
from repro.core.request import RequestRecord
from repro.core.request_queue import RequestQueue


@dataclass
class Core:
    """One core of a village."""

    core_id: int
    village_id: int
    busy: bool = False
    requests_run: int = 0
    busy_ns: float = 0.0
    failed: bool = False                # faulted out of the dispatch pool


class Village:
    """A cache-coherent domain of cores sharing one request queue."""

    def __init__(self, engine, village_id: int, n_cores: int,
                 scheduler: SchedulerDomain, executor,
                 rq_capacity: int = 64,
                 steal_from: Optional[List["Village"]] = None,
                 steal_overhead_ns: float = 0.0,
                 rq_policy: Optional[object] = None,
                 steal_policy: Optional[object] = None,
                 core_bypass: bool = False,
                 name: str = ""):
        if n_cores < 1:
            raise ValueError("a village needs at least one core")
        self.engine = engine
        self.village_id = village_id
        self.scheduler = scheduler
        self.executor = executor
        self.name = name or f"village{village_id}"
        # The engine is the RQ's clock, for RQ-wait stamping.
        self.rq = RequestQueue(rq_capacity, name=f"{self.name}.rq",
                               policy=rq_policy, clock=engine)
        #: nanoPU-style fast path: an arriving request may skip the
        #: queue/scheduler machinery and start on an idle core at once
        #: (it still takes an RQ slot, so conservation is untouched).
        self.core_bypass = core_bypass
        self.cores = [Core(core_id=i, village_id=village_id)
                      for i in range(n_cores)]
        self.steal_from = steal_from or []
        #: Villages that may steal from this one; notified when work backs
        #: up here so their idle cores can come and take it.
        self.stealers: List["Village"] = []
        if steal_policy is None:
            from repro.sched.stealing import FIRST_STEAL

            steal_policy = FIRST_STEAL
        self.steal_policy = steal_policy
        self.steal_overhead_ns = steal_overhead_ns
        # Measured-service-time feedback for the dequeue policy (SJF):
        # the policy may expose ``observe(service, ns)``.
        self._observe_segment = getattr(self.rq.policy, "observe", None)
        #: Service-time tap of the hybrid fast path (repro.hybrid); None
        #: outside hybrid runs so the hot path pays one attribute load.
        self.hybrid_observe = None
        self.completed = 0
        self.steals = 0
        self.bypasses = 0
        #: Fault state.  A failed village blackholes: it acks submissions
        #: (the sender cannot tell yet — that is the detection lag) but
        #: drops them; its RQ is purged on failure.  ``degrade_factor``
        #: models gray failures — every segment runs that much slower.
        self.failed = False
        self.degrade_factor = 1.0
        self.blackholed = 0

    # ------------------------------------------------------------ fault state

    def fail(self) -> None:
        """Hard failure: purge the RQ, blackhole everything from now on."""
        if self.failed:
            return
        self.failed = True
        self.blackholed += self.rq.purge()

    def recover(self) -> None:
        self.failed = False
        self.degrade_factor = 1.0
        for core in self.cores:
            core.busy = False      # contexts died with the purge
        self._kick()

    # ------------------------------------------------------------ ingress

    def submit(self, rec: RequestRecord) -> bool:
        """Enqueue an arriving request; False when the RQ is full."""
        if self.failed:
            # Dead hardware acks nothing, but the sender cannot know that
            # until its health check fires: the request just vanishes.
            # Timeout/retry at the RPC layer is what rescues it.
            self.blackholed += 1
            rec.village = self.village_id
            return True
        if self.core_bypass and self._try_bypass(rec):
            return True
        if not self.rq.enqueue(rec):
            return False
        rec.village = self.village_id
        rec._owner_village = self           # home RQ for later transitions
        rec._enqueue_ns = self.engine.now
        self._kick()
        if self.stealers and self.rq.has_ready():
            for stealer in self.stealers:
                stealer._kick()
                if not self.rq.has_ready():
                    break
        return True

    def submit_soft(self, rec: RequestRecord) -> None:
        """Admit an internal request via NIC buffering (no RQ slot)."""
        if self.failed:
            self.blackholed += 1
            rec.village = self.village_id
            return
        self.rq.soft_enqueue(rec)
        rec.village = self.village_id
        rec._owner_village = self
        rec._enqueue_ns = self.engine.now
        self._kick()

    def make_ready(self, rec: RequestRecord) -> None:
        """An RPC response arrived: the request moves past the call and
        its entry goes blocked -> ready (wakeup)."""
        rec.advance_segment()
        owner = rec._owner_village
        # ``owner.rq.is_stale(rec)``, inlined here and below.
        if owner.failed or rec._rq_epoch != owner.rq.epoch:
            # The entry's context memory was purged by a village failure;
            # a late response has nothing to wake up.
            owner.blackholed += 1
            return

        def ready():
            if owner.failed or rec._rq_epoch != owner.rq.epoch:
                owner.blackholed += 1
                return
            owner.rq.mark_ready(rec)
            self._kick()

        self.scheduler.scheduler_op(ready, rec=rec)

    def _try_bypass(self, rec: RequestRecord) -> bool:
        """nanoPU-style core bypass: land the request straight on an
        idle core, skipping the scheduler round-trip.

        The request still claims a normal RQ slot and is immediately
        dequeued, so every queue/conservation invariant holds unchanged;
        what it skips is the scheduler op (queueing + jitter on software
        schedulers) between enqueue and first execution.  Requires an
        idle core AND no older READY work that core should take first
        (no queue jumping) AND a free slot; otherwise the caller falls
        back to normal dispatch.
        """
        if self.rq.is_full:
            return False
        core = None
        for c in self.cores:
            if not c.busy and not c.failed:
                core = c
                break
        if core is None:
            return False
        if self.rq.has_ready():
            return False
        self.rq.enqueue(rec)            # cannot fail: is_full was checked
        rec.village = self.village_id
        rec._owner_village = self
        rec._enqueue_ns = self.engine.now
        got = self.rq.dequeue()
        if got is not rec:              # pragma: no cover - invariant
            raise RuntimeError("core bypass dequeued a different entry")
        core.busy = True
        core.requests_run += 1
        rec._first_dispatch_ns = self.engine.now
        rec.queue_wait_ns = 0.0
        self.bypasses += 1
        check = self.engine.check
        if check.enabled:
            check.core_bypass(self, rec)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.span("core_bypass", self.name, self.engine.now,
                        self.engine.now, rec=rec, track=self.name)
        self._execute(core, rec)
        return True

    # ----------------------------------------------------------- dispatch

    def _kick(self) -> None:
        if self.failed:
            return
        rq = self.rq
        for core in self.cores:
            if not core.busy and not core.failed:
                # A core failing to dequeue means the RQ has no ready
                # work for anyone — stop scanning cores.  So does an
                # empty ready heap in a village with no steal peers.
                if not (rq._ready_heap or self.steal_from) \
                        or not self._try_dispatch(core):
                    break

    def _try_dispatch(self, core: Core) -> bool:
        if core.busy or core.failed or self.failed:
            return False
        # An empty ready heap has nothing to dequeue.
        rec = self.rq.dequeue() if self.rq._ready_heap else None
        if rec is None and self.steal_from:
            rec = self.steal_policy.steal(self, core)
            if rec is not None:
                self.steals += 1
        if rec is None:
            return False
        core.busy = True
        core.requests_run += 1
        if rec._first_dispatch_ns is None:
            rec._first_dispatch_ns = self.engine.now
            rec.queue_wait_ns = self.engine.now - rec._enqueue_ns
        tracer = self.engine.tracer
        if tracer.enabled:
            # RQ residency ends at dequeue; the ready stamp comes from the
            # queue's clock (enqueue or the last blocked->ready wakeup).
            tracer.span("rq_wait", self.name, rec._ready_since_ns,
                        self.engine.now, rec=rec, track=self.name)
        stolen = rec.village != self.village_id
        if stolen:
            check = self.engine.check
            if check.enabled:
                check.rq_steal(self, rec)
            if tracer.enabled:
                tracer.span("steal", self.name, self.engine.now,
                            self.engine.now + self.steal_overhead_ns,
                            rec=rec, track=self.name)

        def start():
            if rec.has_run:
                self.scheduler.charge_restore(
                    lambda: self._execute(core, rec), rec=rec)
            else:
                self._execute(core, rec)

        extra = self.steal_overhead_ns if stolen else 0.0
        if extra > 0:
            self.scheduler.scheduler_op(
                lambda: self.engine.schedule(extra, start), rec=rec)
        else:
            self.scheduler.scheduler_op(start, rec=rec)
        return True

    def _execute(self, core: Core, rec: RequestRecord) -> None:
        duration = self.executor.segment_time_ns(rec, core)
        if self.degrade_factor != 1.0:       # gray failure: slow node
            duration *= self.degrade_factor
        if self._observe_segment is not None:
            self._observe_segment(rec.service, duration)
        if self.hybrid_observe is not None:
            self.hybrid_observe(rec.service, duration)
        rec.last_core = (self.village_id, core.core_id)
        rec.has_run = True
        core.busy_ns += duration
        check = self.engine.check
        if check.enabled:
            check.compute_segment(self, rec, duration)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.span("compute", f"{rec.service}#seg{rec.seg_index}",
                        self.engine.now, self.engine.now + duration,
                        rec=rec, track=f"{self.name}.c{core.core_id}",
                        core=core.core_id)
        self.engine.schedule(duration, self._segment_finished, core, rec)

    def _segment_finished(self, core: Core, rec: RequestRecord) -> None:
        owner = rec._owner_village
        if self.failed or owner.failed or rec._rq_epoch != owner.rq.epoch:
            # The village (or the entry's home RQ) died mid-segment: the
            # request is gone.  Free the core if *this* village is alive.
            owner.blackholed += 1
            core.busy = False
            if not self.failed:
                self._try_dispatch(core)
            return
        self.executor.segment_done(rec, self, core)

    # ----------------------------------------- executor-driven transitions

    def block_for_call(self, rec: RequestRecord, core: Core) -> None:
        """The request issued a blocking RPC: save state, free the core."""
        owner = rec._owner_village
        owner.rq.mark_blocked(rec)

        def saved():
            core.busy = False
            if self.rq._ready_heap or self.steal_from:
                self._try_dispatch(core)

        self.scheduler.charge_save(saved, rec=rec)

    def finish(self, rec: RequestRecord, core: Core) -> None:
        """The request completed: Complete instruction, free the core."""
        owner = rec._owner_village
        owner.rq.complete(rec)
        rec.finish_ns = self.engine.now
        self.completed += 1

        def done():
            core.busy = False
            rec.on_complete(rec)
            if self.rq._ready_heap or self.steal_from:
                self._try_dispatch(core)

        self.scheduler.scheduler_op(done, rec=rec)

    # ------------------------------------------------------------- stats

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def utilization(self, elapsed_ns: Optional[float] = None) -> float:
        elapsed = elapsed_ns if elapsed_ns is not None else self.engine.now
        if elapsed <= 0:
            return 0.0
        return sum(c.busy_ns for c in self.cores) / (elapsed * self.n_cores)
