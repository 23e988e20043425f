"""Unit tests for the discrete-event engine.

The engine pops events in ``(time, seq)`` order: same-time events fire
in scheduling order, and cancellation, clock clamping and event budgets
are pinned below because the simulation's byte-identity contract rides
on them (see docs/PERFORMANCE.md).  The adversarial test at the end
replays one schedule on the engine and on a sorted-list reference queue.
"""

import bisect

import pytest

from repro.sim import Engine


@pytest.fixture(params=["heapq"])
def eng(request):
    """The engine under test, id'd by its queue structure (C heapq)."""
    return Engine()


def test_events_fire_in_time_order(eng):
    fired = []
    eng.schedule(5.0, fired.append, "late")
    eng.schedule(1.0, fired.append, "early")
    eng.schedule(3.0, fired.append, "mid")
    eng.run()
    assert fired == ["early", "mid", "late"]
    assert eng.now == 5.0


def test_same_time_events_fire_in_scheduling_order(eng):
    fired = []
    for i in range(10):
        eng.schedule(1.0, fired.append, i)
    eng.run()
    assert fired == list(range(10))


def test_cancelled_event_does_not_fire(eng):
    fired = []
    ev = eng.schedule(1.0, fired.append, "x")
    eng.cancel(ev)
    eng.schedule(2.0, fired.append, "y")
    eng.run()
    assert fired == ["y"]


def test_peek_time_skips_cancelled_events(eng):
    first = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.peek_time() == 1.0
    eng.cancel(first)
    assert eng.peek_time() == 2.0


def test_peek_time_empty_after_all_cancelled(eng):
    ev = eng.schedule(1.0, lambda: None)
    eng.cancel(ev)
    assert eng.peek_time() is None


def test_step_skips_cancelled_and_advances_clock(eng):
    fired = []
    ev = eng.schedule(1.0, fired.append, "dead")
    eng.schedule(2.0, fired.append, "live")
    eng.cancel(ev)
    assert eng.step() is True
    assert fired == ["live"] and eng.now == 2.0
    assert eng.step() is False


def test_run_until_stops_clock_at_bound(eng):
    fired = []
    eng.schedule(1.0, fired.append, "a")
    eng.schedule(10.0, fired.append, "b")
    eng.run(until=5.0)
    assert fired == ["a"]
    assert eng.now == 5.0
    eng.run()
    assert fired == ["a", "b"]


def test_run_until_earlier_horizon_does_not_rewind_clock(eng):
    """A second run() with an until below the current time must clamp
    rather than move the clock backwards past times already handed out."""
    eng.schedule(10.0, lambda: None)
    eng.run()
    assert eng.now == 10.0
    eng.schedule(5.0, lambda: None)      # pending at t=15
    eng.run(until=3.0)                   # horizon already in the past
    assert eng.now == 10.0               # clock did not rewind
    eng.run()
    assert eng.now == 15.0


def test_schedule_during_event_execution(eng):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            eng.schedule(1.0, chain, n + 1)

    eng.schedule(0.0, chain, 0)
    eng.run()
    assert fired == [0, 1, 2, 3]
    assert eng.now == 3.0


def test_negative_delay_rejected(eng):
    with pytest.raises(ValueError):
        eng.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time(eng):
    fired = []
    eng.schedule_at(4.0, fired.append, "x")
    eng.run()
    assert eng.now == 4.0 and fired == ["x"]
    with pytest.raises(ValueError):
        eng.schedule_at(1.0, fired.append, "past")


def test_schedule_at_batch_matches_loop(eng):
    """Batch insertion must replay a schedule_at loop exactly —
    same (time, seq) order, including ties across the two paths."""
    fired = []
    times = [3.0, 3.0, 7.5, 7.5, 12.0]
    eng.schedule(3.0, fired.append, ("pre", 3.0))
    eng.schedule_at_batch(times, lambda t: fired.append(("batch", t)),
                          append_time=True)
    eng.schedule(3.0, fired.append, ("post", 3.0))
    eng.run()
    assert fired == [("pre", 3.0), ("batch", 3.0), ("batch", 3.0),
                     ("post", 3.0), ("batch", 7.5), ("batch", 7.5),
                     ("batch", 12.0)]


def test_schedule_at_batch_past_time_rejected(eng):
    eng.schedule(2.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_at_batch([1.0], lambda t: None, append_time=True)


def test_max_events_bound(eng):
    fired = []
    for i in range(5):
        eng.schedule(float(i), fired.append, i)
    eng.run(max_events=2)
    assert fired == [0, 1]


def test_events_processed_counter(eng):
    for i in range(7):
        eng.schedule(float(i), lambda: None)
    eng.run()
    assert eng.events_processed == 7


def test_cancelled_events_consume_no_budget_and_no_count(eng):
    fired = []
    handles = [eng.schedule(float(i), fired.append, i) for i in range(6)]
    for ev in handles[1:4]:
        eng.cancel(ev)
    eng.run(max_events=2)
    assert fired == [0, 4] and eng.events_processed == 2
    eng.run()
    assert fired == [0, 4, 5] and eng.events_processed == 3


def test_cancel_after_firing_is_a_no_op(eng):
    fired = []
    ev = eng.schedule(1.0, fired.append, "x")
    eng.run()
    eng.cancel(ev)
    eng.schedule(1.0, fired.append, "y")
    eng.run()
    assert fired == ["x", "y"] and eng.events_processed == 2


def test_schedule_returns_a_plain_entry(eng):
    """The handle is the heap entry itself: no per-event object."""
    fired = []
    ev = eng.schedule_at(3.0, fired.extend, "ab")
    assert type(ev) is list and ev[0] == 3.0 and ev[3] == ("ab",)
    eng.run()
    assert fired == ["a", "b"]


class _RefEvent:
    def __init__(self, fn, args):
        self.fn = fn
        self.args = args
        self.cancelled = False


class _ReferenceQueue:
    """The engine's contract spelled out: a list kept sorted on
    ``(time, seq)``, popped from the front."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._entries = []
        self._seq = 0

    def schedule_at(self, time, fn, *args):
        ev = _RefEvent(fn, args)
        # seq is unique, so tuple comparison never reaches the event.
        bisect.insort(self._entries, (time, self._seq, ev))
        self._seq += 1
        return ev

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    @staticmethod
    def cancel(ev):
        ev.cancelled = True

    def run(self):
        while self._entries:
            time, __, ev = self._entries.pop(0)
            if ev.cancelled:
                continue
            self.now = time
            self.events_processed += 1
            ev.fn(*ev.args)


def test_engine_matches_reference_queue_on_adversarial_schedule():
    """Heavy timestamp ties, far-future events, mid-run cancellations
    and reschedules from inside callbacks: the engine must fire exactly
    what a sorted ``(time, seq)`` list fires, in the same order."""
    import numpy as np

    def drive(eng):
        rng = np.random.default_rng(1234)
        fired = []
        pending = []

        def fire(tag):
            fired.append((round(eng.now, 9), tag))
            # Occasionally cancel a pending event and schedule new ones
            # (some at the same instant, some far in the future).
            if pending and tag % 3 == 0:
                eng.cancel(pending.pop(len(pending) // 2))
            if tag < 400:
                delay = float(rng.choice([0.0, 0.25, 1.0, 900_000.0]))
                pending.append(eng.schedule(delay, fire, tag + 400))

        for i in range(400):
            t = float(rng.integers(0, 50)) * 0.5   # heavy ties
            pending.append(eng.schedule_at(t, fire, i))
        eng.run()
        return fired, eng.now, eng.events_processed

    got = drive(Engine())
    assert got == drive(_ReferenceQueue())
    assert got[2] < 800                  # cancelled events were skipped
