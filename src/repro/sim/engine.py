"""Event-queue simulation engine.

Pending events live in one binary heap (C ``heapq``) of plain
``[time, seq, fn, args]`` lists.  Entries compare as ``(time, seq)``
(the sequence number is unique, so comparison never reaches ``fn``):
the sequence number is handed out in scheduling order, so
same-timestamp events fire first-in first-out.  This ``(time, seq)``
total order is the determinism contract every simulation above relies
on — see docs/PERFORMANCE.md before touching it.

The entry itself is the event's handle: ``schedule``/``schedule_at``
return it and :meth:`Engine.cancel` clears its callback slot, so
scheduling allocates nothing beyond the entry and its argument tuple.

The heap holds only in-flight work.  A ``schedule_at_batch`` row (a
whole arrival process) keeps one entry queued at a time, and cancelled
entries are compacted away once they outnumber the live ones; neither
changes any entry's ``(time, seq)`` key, so the pop order is the one an
eager, never-compacted heap would give.
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import le
from typing import Any, Callable, Iterable, Optional

from repro.check.null import NULL_CHECK
from repro.telemetry.tracer import NULL_TRACER


#: A pending event: ``[time, seq, fn, args]``; ``fn`` is None once
#: cancelled or fired.  Returned by ``schedule``/``schedule_at`` as the
#: handle.
Event = list

#: Compaction threshold (asyncio's rule for its timer heap): once the
#: heap holds more than this many entries and more than half of them are
#: cancelled, it is rebuilt from its live entries.
_MIN_HEAP_TO_COMPACT = 100


class _Row:
    """One ``schedule_at_batch`` row, fed to the heap one entry at a time.

    The row's seqs ``seq0 .. seq0 + len(times) - 1`` are reserved when it
    is scheduled; entry ``k`` is ``[times[k], seq0 + k, row.fire, ()]``,
    the key eager insertion would have given it.  Only the next unfired
    entry is queued: :meth:`fire` pushes entry ``k + 1`` before it runs
    the callback for entry ``k``.  Times are non-decreasing and seqs
    increase, so every later entry of the row sorts after the queued one.
    """

    __slots__ = ("heap", "times", "seq0", "k", "fn", "args", "append_time")

    def __init__(self, heap: list, times: list, seq0: int,
                 fn: Callable[..., Any], args: tuple,
                 append_time: bool) -> None:
        self.heap = heap
        self.times = times
        self.seq0 = seq0
        self.k = 0
        self.fn = fn
        self.args = args
        self.append_time = append_time

    def fire(self) -> None:
        times = self.times
        k = self.k
        t = times[k]
        k += 1
        self.k = k
        if k < len(times):
            heapq.heappush(self.heap, [times[k], self.seq0 + k, self.fire, ()])
        if self.append_time:
            self.fn(*self.args, t)
        else:
            self.fn(*self.args)


class Engine:
    """A discrete-event simulator with a nanosecond clock.

    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, fired.append, "a")
    >>> _ = eng.schedule(2.0, fired.append, "b")
    >>> eng.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        #: Cancelled entries still in ``_heap`` (see :meth:`cancel`).
        self._cancelled: int = 0
        self.events_processed: int = 0
        #: Estimated events the hybrid fast path avoided simulating
        #: (maintained by :mod:`repro.hybrid`; 0 outside hybrid runs).
        self.events_elided: int = 0
        #: Telemetry hook shared by every component built on this engine.
        #: Defaults to the flag-only null tracer; sites guard on
        #: ``tracer.enabled`` so disabled tracing costs one attribute
        #: load per hook.
        self.tracer = NULL_TRACER
        #: Invariant sanitizer hook (:mod:`repro.check`), same pattern:
        #: the flag-only null context keeps checking off the hot path.
        self.check = NULL_CHECK

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if not delay >= 0:              # also refuses NaN
            raise ValueError(f"negative or NaN delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        ev = [self.now + delay, seq, fn, args]
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute timestamp ``time`` ns."""
        if not time >= self.now:        # also refuses NaN
            raise ValueError(f"cannot schedule in the past (or at NaN): "
                             f"{time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        ev = [time, seq, fn, args]
        heapq.heappush(self._heap, ev)
        return ev

    def cancel(self, ev: Event) -> None:
        """Prevent a scheduled event from firing.

        Lazy removal: the entry stays queued with its callback slot
        cleared and is discarded when it surfaces at the head.  Once
        cancelled entries are more than half of a heap of more than
        :data:`_MIN_HEAP_TO_COMPACT` entries, the heap is rebuilt in
        place from its live entries.  Cancelling an event that already fired,
        or was already cancelled, is a no-op.
        """
        if ev[2] is None:
            return
        ev[2] = None
        n = self._cancelled + 1
        heap = self._heap
        if n + n > len(heap) > _MIN_HEAP_TO_COMPACT:
            # In place: run() and every _Row hold this very list.
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapq.heapify(heap)
            n = 0
        self._cancelled = n

    def schedule_at_batch(self, times: Iterable[float],
                          fn: Callable[..., Any], *args: Any,
                          append_time: bool = False) -> None:
        """Schedule ``fn(*args)`` at each timestamp of a sorted row.

        ``times`` must be non-decreasing and ``>= now``; a descending
        pair or a NaN raises ValueError here, at the call.  With
        ``append_time=True`` each callback receives its own firing time
        as an extra trailing argument: ``fn(*args, t)``.

        The events get consecutive sequence numbers in iteration order,
        reserved now, so they fire exactly as a ``schedule_at`` loop
        would; but only the next one is queued at a time (see
        :class:`_Row`), so a long row costs the heap one entry.  No
        handles are returned — batch arrivals are never cancelled
        individually.
        """
        times = list(times)
        if not times:
            return
        if not times[0] >= self.now:
            raise ValueError(f"cannot schedule in the past (or at NaN): "
                             f"{times[0]} < {self.now}")
        # ``<=`` on each consecutive pair: a NaN fails it on either side.
        if not all(map(le, times, islice(times, 1, None))):
            k = next(k for k in range(1, len(times))
                     if not times[k - 1] <= times[k])
            raise ValueError(
                f"batch times must be non-decreasing and not NaN: "
                f"times[{k}] = {times[k]} after times[{k - 1}] = "
                f"{times[k - 1]}")
        seq = self._seq
        self._seq = seq + len(times)
        row = _Row(self._heap, times, seq, fn, args, append_time)
        heapq.heappush(self._heap, [times[0], seq, row.fire, ()])

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None when idle."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` ns, or ``max_events``.

        The loop is deliberately inlined (no per-event ``peek_time``
        call): this is the innermost interpreter loop of every
        simulation, so each saved attribute load or function call counts.
        Semantics are pinned by tests/test_sim_engine.py: cancelled events
        are skipped without consuming the ``max_events`` budget, and a
        second ``run()`` with an earlier horizon never rewinds the clock.
        ``heap`` stays valid across callbacks: compaction rebuilds the
        list in place.
        """
        heap = self._heap
        pop = heapq.heappop
        check = self.check
        check_on = check.enabled
        budget = -1 if max_events is None else max_events
        while heap:
            if budget == 0:
                break
            entry = heap[0]
            fn = entry[2]
            if fn is None:
                pop(heap)
                self._cancelled -= 1
                continue
            t = entry[0]
            if until is not None and t > until:
                # Clamp: a second run() with an earlier horizon must not
                # rewind the clock below times already handed out.
                if until > self.now:
                    if check_on:
                        check.clock_advance(self.now, until)
                    self.now = until
                break
            pop(heap)
            entry[2] = None             # fired: a later cancel is a no-op
            if check_on:
                check.clock_advance(self.now, t)
            self.now = t
            self.events_processed += 1
            fn(*entry[3])
            budget -= 1

