"""Hardware Request Queue (Section 4.3, Figure 13).

A circular buffer with head/tail pointers.  Entries hold a status, a
service id, and a pointer into the Request Context Memory (here: the
:class:`~repro.core.request.RequestRecord` itself).  Only the live window
(head to tail) is stored, so a DRAM-sized software queue costs memory in
proportion to what it holds, not to its capacity.

Semantics implemented faithfully:

* ``enqueue`` appends at the tail; fails when the buffer is full.
* ``dequeue`` atomically returns the READY entry *closest to the head*
  (FCFS), marking it running.
* ``complete`` marks an entry finished and, when it is at the head,
  advances the head past consecutive finished entries.  Finished entries
  not at the head keep occupying their slot until the head passes them —
  exactly what a hardware circular buffer does.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional

from repro.check.null import NULL_CHECK
from repro.core.request import RequestRecord, RequestStatus


class RequestQueue:
    """Circular buffer of request entries with FCFS dequeue."""

    def __init__(self, capacity: int = 64, name: str = "",
                 policy: Optional[object] = None, clock=None):
        from repro.sched.policies import FCFS_POLICY

        if capacity < 1:
            raise ValueError("RQ capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.policy = policy or FCFS_POLICY
        # The live window, head (left) to tail.
        self._slots: Deque[RequestRecord] = deque()
        self.enqueued = 0
        self.rejected = 0
        self.peak_occupancy = 0
        self.soft_entries = 0      # NIC-buffered entries (no slot held)
        # FCFS index: min-heap of (enqueue sequence, record) with lazy
        # invalidation, so dequeue does not scan long blocked queues.
        self._ready_heap: List = []
        # Telemetry: ``clock`` (anything with ``.now``, normally the sim
        # engine) lets the queue stamp when entries become READY and
        # account total RQ residency; None keeps the queue time-free.
        self.clock = clock
        #: Sanitizer hook, picked up from the clock (the engine carries
        #: it) so a checked run validates every queue transition.
        self.check = getattr(clock, "check", NULL_CHECK)
        self.wait_ns_total = 0.0
        self.dequeues = 0
        # Fault epoch: bumped by ``purge`` (village failure wipes the RQ
        # and its Request Context Memory).  Entries stamped with an older
        # epoch are stale — late wakeups/completions for them are ignored.
        self.epoch = 0

    @property
    def occupancy(self) -> int:
        return len(self._slots)

    @property
    def is_full(self) -> bool:
        return len(self._slots) >= self.capacity

    def enqueue(self, rec: RequestRecord) -> bool:
        """Append at the tail; False (and count a rejection) when full."""
        slots = self._slots
        if len(slots) >= self.capacity:           # is_full
            self.rejected += 1
            return False
        slots.append(rec)
        self.enqueued += 1
        if len(slots) > self.peak_occupancy:
            self.peak_occupancy = len(slots)
        rec.status = RequestStatus.READY
        rec._rq_seq = self.enqueued
        rec._rq_soft = False
        rec._rq_epoch = self.epoch
        if self.clock is not None:
            rec._ready_since_ns = self.clock.now
        heapq.heappush(self._ready_heap,
                       (self.policy.key(rec), rec.req_id, rec))
        if self.check.enabled:
            self.check.rq_admit(self, rec)
        return True

    def soft_enqueue(self, rec: RequestRecord) -> None:
        """Admit an entry without occupying a circular-buffer slot.

        Models the NIC-side buffering of Section 4.3 for *internal*
        (nested-call) requests: a child RPC cannot be dropped, and letting
        it wait only in the NIC while every RQ slot is held by a blocked
        parent would deadlock the call tree.  Soft entries are scheduled
        exactly like slot entries but skip the head/tail bookkeeping.
        """
        self.enqueued += 1
        self.soft_entries += 1
        rec.status = RequestStatus.READY
        rec._rq_seq = self.enqueued
        rec._rq_soft = True
        rec._rq_epoch = self.epoch
        if self.clock is not None:
            rec._ready_since_ns = self.clock.now
        heapq.heappush(self._ready_heap,
                       (self.policy.key(rec), rec.req_id, rec))
        if self.check.enabled:
            self.check.rq_admit(self, rec, soft=True)

    def dequeue(self) -> Optional[RequestRecord]:
        """Highest-priority READY entry (None when there is none)."""
        while self._ready_heap:
            __, __id, rec = heapq.heappop(self._ready_heap)
            if rec.status is not RequestStatus.READY:
                continue                              # stale entry
            rec.status = RequestStatus.RUNNING
            self.dequeues += 1
            if self.clock is not None:
                rec._rq_wait_ns = self.clock.now - rec._ready_since_ns
                self.wait_ns_total += rec._rq_wait_ns
            if self.check.enabled:
                self.check.rq_dequeue(self, rec)
            return rec
        return None

    def has_ready(self) -> bool:
        """The per-core Work flag: is there anything to dequeue?"""
        while self._ready_heap:
            if self._ready_heap[0][2].status is RequestStatus.READY:
                return True
            heapq.heappop(self._ready_heap)
        return False

    def mark_blocked(self, rec: RequestRecord) -> None:
        rec.status = RequestStatus.BLOCKED

    def mark_ready(self, rec: RequestRecord) -> None:
        if rec._rq_epoch != self.epoch:      # stale (see is_stale)
            # The entry (and its context memory) was wiped by a purge; a
            # late wakeup must not plant a ghost in the new epoch's heap.
            return
        if rec.status is not RequestStatus.BLOCKED:
            raise RuntimeError(
                f"request {rec.req_id} not blocked ({rec.status})")
        rec.status = RequestStatus.READY
        if self.clock is not None:
            rec._ready_since_ns = self.clock.now
        # Re-index: FCFS keeps the original arrival position; SRPT re-keys
        # by the (now smaller) remaining work.
        heapq.heappush(self._ready_heap,
                       (self.policy.key(rec), rec.req_id, rec))
        if self.check.enabled:
            self.check.rq_wakeup(self, rec)

    def complete(self, rec: RequestRecord) -> None:
        """Mark finished; advance the head past finished entries."""
        rec.status = RequestStatus.FINISHED
        stale = rec._rq_epoch != self.epoch
        if rec._rq_soft:
            # Epoch guard: a purge already reset ``soft_entries`` to 0,
            # so a late completion of a pre-purge soft entry must not
            # decrement it (the counter would go negative and poison
            # occupancy accounting for the rest of the run).
            if not stale:
                self.soft_entries -= 1
            if self.check.enabled:
                self.check.rq_complete(self, rec, stale=stale)
            return
        if not stale:
            slots = self._slots
            while slots and slots[0].status is RequestStatus.FINISHED:
                slots.popleft()
        if self.check.enabled:
            self.check.rq_complete(self, rec, stale=stale)

    def is_stale(self, rec: RequestRecord) -> bool:
        """Was ``rec``'s entry wiped by a purge since it was enqueued?

        The hot paths here and in :class:`~repro.core.village.Village`
        make the same epoch comparison inline."""
        return rec._rq_epoch != self.epoch

    def purge(self) -> int:
        """Village failure: drop every entry (slots *and* soft entries).

        Blocked soft entries hold no enumerable slot, so instead of
        chasing them the queue bumps its epoch; any later wakeup or
        completion for a pre-purge entry is recognised as stale and
        ignored.  Returns the number of entries dropped.
        """
        if self.check.enabled:
            self.check.rq_purge(self)       # counts the pre-wipe entries
        dropped = len(self._slots) + self.soft_entries
        self._slots.clear()
        self.soft_entries = 0
        self._ready_heap.clear()
        self.epoch += 1
        return dropped

    def entries(self) -> List[RequestRecord]:
        """The live window from head to tail (diagnostics, checker)."""
        return list(self._slots)
