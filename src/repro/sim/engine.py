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
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional

from repro.check.context import NULL_CHECK
from repro.telemetry.tracer import NULL_TRACER


#: A pending event: ``[time, seq, fn, args]``; ``fn`` is None once
#: cancelled.  Returned by ``schedule``/``schedule_at`` as the handle.
Event = list


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
        self.events_processed: int = 0
        #: Estimated events the hybrid fast path avoided simulating
        #: (maintained by :mod:`repro.hybrid`; 0 outside hybrid runs).
        self.events_elided: int = 0
        #: Telemetry hook shared by every component built on this engine.
        #: Defaults to the no-op tracer; sites guard on ``tracer.enabled``
        #: so disabled tracing costs one attribute load per hook.
        self.tracer = NULL_TRACER
        #: Invariant sanitizer hook (:mod:`repro.check`), same pattern:
        #: the default no-op context keeps checking off the hot path.
        self.check = NULL_CHECK
        self._msg_ids: int = 0

    def next_msg_id(self) -> int:
        """Allocate a run-local message id (deterministic per engine,
        unlike a module-level counter shared across runs in a process)."""
        mid = self._msg_ids
        self._msg_ids += 1
        return mid

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        ev = [self.now + delay, seq, fn, args]
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute timestamp ``time`` ns."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        ev = [time, seq, fn, args]
        heapq.heappush(self._heap, ev)
        return ev

    @staticmethod
    def cancel(ev: Event) -> None:
        """Prevent a scheduled event from firing.

        Lazy removal: the entry stays queued with its callback slot
        cleared and is discarded when it surfaces at the head.
        Cancelling an event that already fired is a no-op.
        """
        ev[2] = None

    def schedule_at_batch(self, times: Iterable[float],
                          fn: Callable[..., Any], *args: Any,
                          append_time: bool = False) -> None:
        """Bulk-schedule ``fn(*args)`` at each ascending timestamp.

        ``times`` must be non-decreasing and ``>= now`` (validated once at
        the head, then trusted — callers pass sorted arrival arrays).
        With ``append_time=True`` each callback receives its own firing
        time as an extra trailing argument: ``fn(*args, t)``.

        Events get consecutive sequence numbers in iteration order, so the
        result is byte-identical to a ``schedule_at`` loop; only the
        per-call overhead (bounds check, attribute traffic) is batched
        away.  No handles are returned — batch arrivals are never
        cancelled individually.
        """
        times = list(times)
        if not times:
            return
        if times[0] < self.now:
            raise ValueError(
                f"cannot schedule in the past: {times[0]} < {self.now}")
        seq = self._seq
        heap = self._heap
        push = heapq.heappush
        if append_time:
            for t in times:
                push(heap, [t, seq, fn, args + (t,)])
                seq += 1
        else:
            for t in times:
                push(heap, [t, seq, fn, args])
                seq += 1
        self._seq = seq

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None when idle."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None:
                heapq.heappop(heap)
                continue
            return entry[0]
        return None

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, __, fn, args = heapq.heappop(heap)
            if fn is None:
                continue
            if self.check.enabled:
                self.check.clock_advance(self.now, time)
            self.now = time
            self.events_processed += 1
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` ns, or ``max_events``.

        The loop is deliberately inlined (no per-event ``peek_time`` +
        ``step`` calls): this is the innermost interpreter loop of every
        simulation, so each saved attribute load or function call counts.
        Semantics are pinned by tests/test_sim_engine.py: cancelled events
        are skipped without consuming the ``max_events`` budget, and a
        second ``run()`` with an earlier horizon never rewinds the clock.
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
            if check_on:
                check.clock_advance(self.now, t)
            self.now = t
            self.events_processed += 1
            fn(*entry[3])
            budget -= 1

    def spawn(self, generator, delay: float = 0.0) -> "Process":
        """Start a generator-based process (see :mod:`repro.sim.process`)."""
        from repro.sim.process import Process

        proc = Process(self, generator)
        self.schedule(delay, proc._advance, None)
        return proc
