"""Tests for the hardware Request Queue (Section 4.3 semantics)."""

import pytest
from hypothesis import given, settings
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
