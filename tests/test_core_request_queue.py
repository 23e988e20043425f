"""Tests for the hardware Request Queue (Section 4.3 semantics)."""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import RequestQueue, RequestRecord, RequestStatus


def rec(service="svc", segments=None):
    return RequestRecord(app_name="app", service=service,
                         segments=segments or [1000.0],
                         on_complete=lambda r: None)


def test_enqueue_dequeue_fcfs():
    rq = RequestQueue(8)
    a, b = rec(), rec()
    assert rq.enqueue(a) and rq.enqueue(b)
    assert rq.dequeue() is a
    assert rq.dequeue() is b
    assert rq.dequeue() is None


def test_dequeue_sets_running_and_skips_blocked():
    rq = RequestQueue(8)
    a, b = rec(), rec()
    rq.enqueue(a)
    rq.enqueue(b)
    got = rq.dequeue()
    assert got.status is RequestStatus.RUNNING
    rq.mark_blocked(got)
    assert rq.dequeue() is b


def test_blocked_then_ready_dequeues_before_later_arrivals():
    """FCFS: a woken entry near the head beats newer READY entries."""
    rq = RequestQueue(8)
    a = rec()
    rq.enqueue(a)
    rq.dequeue()
    rq.mark_blocked(a)
    b = rec()
    rq.enqueue(b)
    rq.mark_ready(a)
    assert rq.dequeue() is a


def test_full_queue_rejects():
    rq = RequestQueue(2)
    assert rq.enqueue(rec()) and rq.enqueue(rec())
    assert rq.is_full
    assert not rq.enqueue(rec())
    assert rq.rejected == 1


def test_complete_at_head_advances_past_finished_run():
    rq = RequestQueue(4)
    a, b, c = rec(), rec(), rec()
    for r in (a, b, c):
        rq.enqueue(r)
    rq.dequeue(), rq.dequeue()
    # Finish b first: not at head, slot stays occupied.
    rq.complete(b)
    assert rq.occupancy == 3
    # Finish a (the head): head advances past a AND the finished b.
    rq.complete(a)
    assert rq.occupancy == 1
    assert rq.entries() == [c]


def test_circular_wraparound():
    rq = RequestQueue(2)
    for __ in range(5):
        r = rec()
        assert rq.enqueue(r)
        assert rq.dequeue() is r
        rq.complete(r)
    assert rq.occupancy == 0
    assert rq.enqueued == 5


def test_has_ready_work_flag():
    rq = RequestQueue(4)
    assert not rq.has_ready()
    a = rec("s1")
    rq.enqueue(a)
    assert rq.has_ready()
    rq.dequeue()
    assert not rq.has_ready()


def test_mark_ready_requires_blocked():
    rq = RequestQueue(4)
    a = rec()
    rq.enqueue(a)
    with pytest.raises(RuntimeError):
        rq.mark_ready(a)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        RequestQueue(0)


def test_stale_soft_complete_does_not_go_negative():
    """Completing a pre-purge soft entry after the purge reset
    ``soft_entries`` to 0 must not drive the counter negative."""
    rq = RequestQueue(8)
    old = rec()
    rq.soft_enqueue(old)
    rq.dequeue()
    rq.purge()
    assert rq.soft_entries == 0
    fresh = rec()
    rq.soft_enqueue(fresh)
    rq.complete(old)                  # late completion of the purged entry
    assert rq.soft_entries == 1       # fresh entry still accounted
    rq.complete(fresh)
    assert rq.soft_entries == 0


def test_purge_drops_slots_and_soft_entries():
    rq = RequestQueue(8)
    rq.enqueue(rec())
    rq.soft_enqueue(rec())
    assert rq.purge() == 2
    assert rq.occupancy == 0 and rq.soft_entries == 0
    assert not rq.has_ready()


def test_late_wakeup_after_purge_is_ignored():
    """mark_ready for a purged entry must not plant a ghost heap entry
    in the new epoch."""
    rq = RequestQueue(8)
    old = rec()
    rq.enqueue(old)
    rq.dequeue()
    rq.mark_blocked(old)
    rq.purge()
    rq.mark_ready(old)                # stale: silently ignored
    assert not rq.has_ready()
    assert rq.dequeue() is None


def test_late_slot_complete_after_purge_leaves_new_entries_alone():
    rq = RequestQueue(4)
    old = rec()
    rq.enqueue(old)
    rq.dequeue()
    rq.purge()
    fresh = rec()
    rq.enqueue(fresh)
    rq.complete(old)                  # stale: must not advance the head
    assert rq.occupancy == 1
    assert rq.entries() == [fresh]


@given(st.lists(st.sampled_from(["enq", "deq", "fin"]), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_rq_invariants_under_random_ops(ops):
    """Occupancy stays within [0, capacity]; dequeues are FCFS by arrival."""
    rq = RequestQueue(8)
    running = []
    order = []
    counter = [0]
    for op in ops:
        if op == "enq":
            r = rec()
            r._seq = counter[0]
            counter[0] += 1
            rq.enqueue(r)
        elif op == "deq":
            r = rq.dequeue()
            if r is not None:
                running.append(r)
                order.append(r._seq)
        elif op == "fin" and running:
            rq.complete(running.pop(0))
        assert 0 <= rq.occupancy <= rq.capacity
    assert order == sorted(order)   # FCFS dequeue order


# ------------------------------------------------- differential vs the ring

class RingRQ(RequestQueue):
    """Reference: the preallocated ``[None] * capacity`` head/size ring
    that the live-window deque replaced.  Scheduling (ready heap, epochs,
    soft entries) is inherited; only the slot storage differs."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self._slots = [None] * capacity
        self._head = 0
        self._size = 0

    @property
    def occupancy(self):
        return self._size

    @property
    def is_full(self):
        return self._size >= self.capacity

    def enqueue(self, rec):
        if self.is_full:
            self.rejected += 1
            return False
        tail = (self._head + self._size) % self.capacity
        self._slots[tail] = rec
        self._size += 1
        self.enqueued += 1
        if self._size > self.peak_occupancy:
            self.peak_occupancy = self._size
        rec.status = RequestStatus.READY
        rec._rq_seq = self.enqueued
        rec._rq_soft = False
        rec._rq_epoch = self.epoch
        heapq.heappush(self._ready_heap,
                       (self.policy.key(rec), rec.req_id, rec))
        return True

    def complete(self, rec):
        rec.status = RequestStatus.FINISHED
        stale = self.is_stale(rec)
        if rec._rq_soft:
            if not stale:
                self.soft_entries -= 1
            return
        if not stale:
            while self._size > 0:
                head_rec = self._slots[self._head]
                if head_rec is None \
                        or head_rec.status is RequestStatus.FINISHED:
                    self._slots[self._head] = None
                    self._head = (self._head + 1) % self.capacity
                    self._size -= 1
                else:
                    break

    def purge(self):
        dropped = self._size + self.soft_entries
        self._slots = [None] * self.capacity
        self._head = 0
        self._size = 0
        self.soft_entries = 0
        self._ready_heap.clear()
        self.epoch += 1
        return dropped

    def entries(self):
        out = []
        for offset in range(self._size):
            rec = self._slots[(self._head + offset) % self.capacity]
            if rec is not None:
                out.append(rec)
        return out


RQ_OPS = ["enqueue", "soft_enqueue", "dequeue", "mark_blocked",
          "mark_ready", "complete", "purge"]


@given(st.integers(1, 8),
       st.lists(st.tuples(st.sampled_from(RQ_OPS), st.integers(0, 7)),
                max_size=80))
@example(4, [("enqueue", 0), ("enqueue", 0), ("dequeue", 0),
             ("dequeue", 0), ("complete", 1), ("complete", 0)])
@settings(max_examples=200, deadline=None)
def test_live_window_matches_reference_ring(capacity, ops):
    """The deque RQ and the preallocated ring agree on every operation:
    return values, occupancy, rejections, peak, dequeue order, purge
    drop counts and the live window, including late (post-purge)
    wakeups and completions."""
    live, ring = RequestQueue(capacity), RingRQ(capacity)
    twins = []                        # index -> (live record, ring record)
    index = {}                        # id(either twin) -> index
    running, blocked = [], []         # indices, stale ones included

    def idx(r):
        return None if r is None else index[id(r)]

    for op, k in ops:
        if op in ("enqueue", "soft_enqueue"):
            a, b = rec(), rec()
            index[id(a)] = index[id(b)] = len(twins)
            twins.append((a, b))
            assert getattr(live, op)(a) == getattr(ring, op)(b)
        elif op == "dequeue":
            got = idx(live.dequeue())
            assert got == idx(ring.dequeue())
            if got is not None:
                running.append(got)
        elif op == "purge":
            assert live.purge() == ring.purge()
        elif op in ("mark_blocked", "complete") and running:
            i = running.pop(k % len(running))
            a, b = twins[i]
            getattr(live, op)(a)
            getattr(ring, op)(b)
            if op == "mark_blocked":
                blocked.append(i)
        elif op == "mark_ready" and blocked:
            i = blocked.pop(k % len(blocked))
            a, b = twins[i]
            assert live.is_stale(a) == ring.is_stale(b)
            live.mark_ready(a)
            ring.mark_ready(b)
            assert a.status is b.status
        assert live.occupancy == ring.occupancy
        assert live.is_full == ring.is_full
        assert live.rejected == ring.rejected
        assert live.peak_occupancy == ring.peak_occupancy
        assert live.soft_entries == ring.soft_entries
        assert [idx(r) for r in live.entries()] \
            == [idx(r) for r in ring.entries()]


# ------------------------------------------------------------------ memory

def test_construction_memory_tracks_occupancy_not_capacity():
    """A ScaleOut server's 32 DRAM-sized software queues allocate no
    per-slot storage up front."""
    import tracemalloc

    from repro.systems.cluster import ClusterSimulation
    from repro.systems.configs import SCALEOUT
    from repro.workloads.deathstar import SOCIAL_NETWORK_APPS

    app = SOCIAL_NETWORK_APPS["Text"]
    ClusterSimulation(SCALEOUT, app, 1000.0, n_servers=1)   # warm-up
    tracemalloc.start()
    try:
        ClusterSimulation(SCALEOUT, app, 1000.0, n_servers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"building one ScaleOut server peaked at {peak} B"

    huge = RequestQueue(capacity=10**9)
    assert huge.enqueue(rec()) and huge.occupancy == 1
    small = RequestQueue(capacity=2)
    assert small.enqueue(rec()) and small.enqueue(rec())
    assert not small.enqueue(rec())
    assert small.rejected == 1
