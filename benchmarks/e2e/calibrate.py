"""Host-speed sampler: a fixed pure-Python kernel timed while a run runs.

The benchmark's host shares its cores and its last-level cache with
other tenants, and the speed of pure-Python code drifts by tens of
percent, in bursts of a fraction of a second and in phases of seconds
to minutes.  While a child builds and runs its workload,
:class:`SpeedSampler` interrupts it ``INTERVAL_S`` after each tick
(``SIGALRM``) and times ``EVENTS`` events of a fixed kernel.  The mean
tick time is the host's speed over the same seconds the workload ran
in; ``child.py`` scales the workload's host times by
``NOMINAL_S / mean tick time``.  A slow phase slows the ticks and the
workload alike and cancels; a change to the simulator moves the
workload and not the ticks, so it shows in full.

The kernel is the benchmark's own code and never changes with the
simulator.  It does the kind of work the simulator's inner loop does:
heap pushes and pops of event tuples, dict lookups, attribute reads
and writes on ``__slots__`` objects, method calls, allocation, float
arithmetic and ``random`` draws, over about 2 MB, which the workload
evicts from the core's caches between ticks.  Its cold start is what
makes it track the workload: most of the drift is other tenants
contending for the shared cache and memory.  How cold it starts does
not depend on the workload: on the 2-vCPU VM of the baselines, ticks
that interrupted the simulator and ticks that interrupted a loop with
no memory footprint took the same median time (within 1%).

The ticks stay out of the workload's numbers:

* their time is taken out of the workload's times, which are read from
  a :class:`WorkClock` that stops while a tick runs;
* the kernel touches nothing of the simulation (its own
  ``random.Random`` and heap), so the simulated results are unchanged,
  as the digest checks of ``run.py`` confirm;
* each event frees as many objects as it allocates and the collector
  is off during a tick, so the ticks do not move the workload's garbage
  collections, on which its peak RSS depends.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
from statistics import fmean
from time import perf_counter
from typing import Callable, List, TypeVar

#: Mean tick time (s) on the 2-vCPU VM the baselines were taken on;
#: scaled host times read in seconds on that machine.
NOMINAL_S = 0.008
#: Wall time from the end of one tick to the start of the next.
INTERVAL_S = 0.1
#: Kernel events of one tick, and the entities they visit.
EVENTS = 3_000
ENTITIES = 10_000

T = TypeVar("T")


class WorkClock:
    """``perf_counter`` minus the time spent in :meth:`exclude` calls.

    Every host time of a run is read from one of these, so work the
    benchmark does inside a run for its own sake is charged to nobody.
    """

    def __init__(self) -> None:
        self.excluded_s = 0.0
        self._stopped = False

    def __call__(self) -> float:
        return perf_counter() - self.excluded_s

    def exclude(self, fn: Callable[[], T]) -> T:
        """Call ``fn`` with the clock stopped (a tick that lands inside
        another excluded call is not taken out twice)."""
        if self._stopped:
            return fn()
        self._stopped = True
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.excluded_s += perf_counter() - t0
            self._stopped = False


class _Entity:
    __slots__ = ("busy", "left", "last")

    def __init__(self) -> None:
        self.busy = 0.0
        self.left = 8
        self.last = 0.0

    def fire(self, now: float) -> bool:
        self.busy += (now - self.last) * 0.5
        self.last = now
        self.left -= 1
        return self.left > 0


class Kernel:
    """A small discrete-event loop: a heap of ``(time, seq, key)`` tuples
    over ``ENTITIES`` entities, each replaced by a new one after eight
    visits."""

    def __init__(self) -> None:
        self.rng = random.Random(1)
        self.table = {i: _Entity() for i in range(ENTITIES)}
        self.heap = [(self.rng.random(), i, i) for i in range(ENTITIES)]
        heapq.heapify(self.heap)
        self.seq = ENTITIES
        # Fill the free lists the loop draws on, so that from the first
        # tick on each event frees what it allocates.
        self.run(2 * ENTITIES)

    def run(self, events: int = EVENTS) -> None:
        rng, table, heap = self.rng, self.table, self.heap
        n = len(table)
        seq = self.seq
        for _ in range(events):
            now, _, key = heapq.heappop(heap)
            if not table[key].fire(now):
                table[key] = _Entity()
            heapq.heappush(heap, (now + rng.expovariate(1.0), seq,
                                  rng.randrange(n)))
            seq += 1
        self.seq = seq


class SpeedSampler:
    """Times :meth:`Kernel.run` ``INTERVAL_S`` after each tick inside the
    ``with`` block, with ``clock`` stopped (main thread only: it uses
    ``SIGALRM``)."""

    def __init__(self, clock: WorkClock) -> None:
        self.clock = clock
        self.kernel = Kernel()
        #: Host seconds of each tick, in order.
        self.ticks: List[float] = []
        self._previous = None
        self._running = False

    def _tick(self, signum, frame) -> None:
        if not self._running:
            return
        self.clock.exclude(self._timed_run)
        # One-shot timer, re-armed after the tick: a tick slowed past
        # the interval can never be interrupted by the next one.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _timed_run(self) -> None:
        # With the collector off, an allocation in the kernel cannot
        # start a collection; the workload's collections fall where
        # they would without ticks.
        gc.disable()
        try:
            t0 = perf_counter()
            self.kernel.run()
            self.ticks.append(perf_counter() - t0)
        finally:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        # A tick already pending must not re-arm the timer after this.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def tick_s(self) -> float:
        """Mean tick time; a run too short for a tick takes one now."""
        if not self.ticks:
            self._timed_run()
        return fmean(self.ticks)
