"""Unit tests for the discrete-event engine.

The engine pops events in ``(time, seq)`` order: same-time events fire
in scheduling order, and cancellation, clock clamping and event budgets
are pinned below because the simulation's byte-identity contract rides
on them (see docs/PERFORMANCE.md).  The adversarial tests at the end
replay schedules on the engine and on a sorted-list reference queue.
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


def test_one_event_run_skips_cancelled_and_advances_clock(eng):
    fired = []
    ev = eng.schedule(1.0, fired.append, "dead")
    eng.schedule(2.0, fired.append, "live")
    eng.cancel(ev)
    eng.run(max_events=1)
    assert fired == ["live"] and eng.now == 2.0
    assert eng.events_processed == 1 and eng.peek_time() is None


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


def test_schedule_at_batch_descending_times_rejected(eng):
    """Rows are fed to the heap lazily, so an unsorted row would fire in
    the past: it is refused at the call, and nothing is scheduled."""
    with pytest.raises(ValueError, match=r"times\[3\]"):
        eng.schedule_at_batch([1.0, 2.0, 2.0, 1.5, 4.0], lambda: None)
    assert eng.peek_time() is None
    eng.schedule(0.0, lambda: None)
    assert eng._heap[0][1] == 0          # no seqs were reserved either


NAN = float("nan")


def _nothing_scheduled(eng):
    assert eng.peek_time() is None and eng._seq == 0


def test_nan_delay_rejected(eng):
    """A NaN entry compares false both ways and breaks the heap order,
    so it is refused at the call."""
    with pytest.raises(ValueError, match="NaN"):
        eng.schedule(NAN, lambda: None)
    _nothing_scheduled(eng)


def test_nan_absolute_time_rejected(eng):
    with pytest.raises(ValueError, match="NaN"):
        eng.schedule_at(NAN, lambda: None)
    _nothing_scheduled(eng)


@pytest.mark.parametrize("times", [[NAN], [NAN, 1.0], [1.0, NAN],
                                   [1.0, 2.0, NAN, 3.0]])
def test_schedule_at_batch_nan_time_rejected(eng, times):
    with pytest.raises(ValueError, match="NaN"):
        eng.schedule_at_batch(times, lambda: None)
    _nothing_scheduled(eng)


def test_schedule_at_batch_row_holds_one_heap_entry(eng):
    """A batch row keeps only its next entry queued, however long it is."""
    fired = []
    rows = [[i * 0.5 for i in range(10_000)],
            [i * 0.75 for i in range(10_000)]]
    for r, times in enumerate(rows):
        eng.schedule_at_batch(times, fired.append, r)
    eng.schedule(1.0, fired.append, "runtime")
    assert len(eng._heap) == 3
    eng.run(until=1234.5)
    assert len(eng._heap) == 2
    eng.run()
    assert len(fired) == 20_001 and eng.events_processed == 20_001
    assert eng.now == 9_999 * 0.75


def test_mass_cancellation_compacts_heap(eng):
    """Cancelled entries never stay more than half of a large heap, the
    count of them stays exact, and the survivors fire in order."""
    fired = []
    handles = [eng.schedule(float(i % 97), fired.append, i)
               for i in range(10_000)]
    for i, ev in enumerate(handles):
        if i % 10:
            eng.cancel(ev)
            eng.cancel(ev)                   # double cancel: a no-op
            heap_len = len(eng._heap)
            assert heap_len <= 100 or eng._cancelled <= heap_len // 2
        if i % 101 == 0:
            assert eng._cancelled == sum(e[2] is None for e in eng._heap)
    assert len(eng._heap) < 2_000
    eng.run()
    live = [i for i in range(10_000) if i % 10 == 0]
    assert fired == sorted(live, key=lambda i: (i % 97, i))
    assert eng._cancelled == 0 and not eng._heap
    eng.cancel(handles[0])                   # already fired: a no-op
    assert eng._cancelled == 0


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

    def schedule_at_batch(self, times, fn, *args, append_time=False):
        for t in times:
            self.schedule_at(t, fn, *(args + (t,) if append_time else args))

    @staticmethod
    def cancel(ev):
        ev.cancelled = True

    def run(self, until=None, max_events=None):
        budget = -1 if max_events is None else max_events
        while self._entries and budget != 0:
            time, __, ev = self._entries[0]
            if ev.cancelled:
                self._entries.pop(0)
                continue
            if until is not None and time > until:
                self.now = max(self.now, until)
                break
            self._entries.pop(0)
            self.now = time
            self.events_processed += 1
            ev.fn(*ev.args)
            budget -= 1


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


@pytest.mark.parametrize("append_time", [False, True])
def test_engine_matches_reference_queue_with_batch_rows(append_time):
    """Batch rows fed lazily, stopping mid-row, event budgets and heap
    compaction must not change what fires or when: several rows whose
    timestamps tie with each other and with runtime events, a
    ``run(until=)`` that stops mid-row, a ``max_events`` budget, then a
    phase that cancels most of a few thousand timeouts."""
    import numpy as np

    def drive(eng, after_cancels=lambda eng: None):
        rng = np.random.default_rng(77)
        fired = []
        pending = []

        def fire(tag, t=None):
            fired.append((eng.now, eng.events_processed, tag, t))
            if pending and len(fired) % 4 == 0:
                eng.cancel(pending.pop(len(pending) // 3))
            if len(fired) % 3 == 0:
                delay = float(rng.choice([0.0, 0.5, 2.0, 50.0]))
                pending.append(eng.schedule(delay, fire, ("rt", tag)))

        def timeout(i):
            fired.append((eng.now, eng.events_processed, "timeout", i))

        # Rows on a 0.5 ns grid (ties across rows and with runtime
        # events), scheduled between plain schedule_at calls; "post"
        # takes the seq right after its row, at the row's last time.
        for r in range(4):
            pending.append(eng.schedule_at(float(r), fire, ("pre", r)))
            times = np.sort(rng.integers(0, 240, size=150)) * 0.5
            eng.schedule_at_batch(times.tolist(), fire, ("row", r),
                                  append_time=append_time)
            eng.schedule_at(float(times[-1]), fire, ("post", r))
        eng.run(until=37.25)                         # stops mid-row
        marks = [(eng.now, len(fired))]
        eng.run(max_events=120)
        marks.append((eng.now, len(fired)))
        timeouts = [eng.schedule(1_000.0 + i % 13, timeout, i)
                    for i in range(3_000)]
        for i, ev in enumerate(timeouts):
            if i % 8:
                eng.cancel(ev)
        after_cancels(eng)
        eng.run(until=60.0)
        marks.append((eng.now, len(fired)))
        eng.run()
        return fired, marks, eng.now, eng.events_processed

    def heap_was_compacted(eng):
        assert len(eng._heap) < 1_000        # 3 000 timeouts, 375 live
        assert eng._cancelled <= len(eng._heap) // 2

    got = drive(Engine(), heap_was_compacted)
    assert got == drive(_ReferenceQueue())
    assert sum(1 for f in got[0] if f[2] == "timeout") == 375
