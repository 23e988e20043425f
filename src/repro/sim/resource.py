"""Simulated resources with FIFO queueing.

:class:`Resource` models a server (or ``capacity`` identical servers) that
serves jobs one at a time; contention appears as queueing delay.  It is the
building block for ICN links/routers, software scheduler cores and NIC
serialization points.

Most resources of a simulated server never see a job wait (a 4-server
flash-crowd cell builds about 1 600 links, cores and NIC ports, and a
few hundred of them ever hold a waiter), so a resource's queue is
allocated on its first waiter (:meth:`Resource._wait`): until then
``_queue`` is one shared empty tuple, which reads as an empty queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple, Union

#: The queue of every resource that has never had a job wait: empty,
#: shared and immutable.  :meth:`Resource._wait` swaps in a ``deque``.
_NO_QUEUE: Tuple = ()


class Resource:
    """``capacity`` servers with a shared FIFO queue.

    ``acquire(service_time, done)`` enqueues a job; ``done()`` is called
    when the job completes service.  Utilization statistics are tracked
    for reporting.
    """

    __slots__ = ("engine", "capacity", "name", "busy", "_queue",
                 "jobs_served", "busy_time", "wait_time_total",
                 "max_queue_len")

    def __init__(self, engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.busy = 0
        #: Waiting jobs as ``(arrival, service_time, done)``; an ICN link
        #: queues the waiting ``_Transit`` itself (:mod:`repro.icn.network`).
        #: An empty tuple until the first job waits.
        self._queue: Union[Deque[Tuple[float, float, Any]], Tuple] = \
            _NO_QUEUE
        self.jobs_served = 0
        check = getattr(engine, "check", None)
        if check is not None and check.enabled:
            check.resource_register(self)   # drain-time leak detection
        self.busy_time = 0.0
        self.wait_time_total = 0.0
        self.max_queue_len = 0

    def acquire(self, service_time: float, done: Callable[[], None]) -> None:
        """Request ``service_time`` ns of this resource; FIFO order."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        if self.busy < self.capacity:
            # Uncontended fast path: ``_start`` inlined with zero wait
            # (start == arrival, so the wait-total term is exactly 0.0).
            self.busy += 1
            engine = self.engine
            check = engine.check
            if check.enabled:
                check.resource_event(self)
            engine.schedule(service_time, self._finish, service_time, done)
        else:
            self._wait((self.engine.now, service_time, done))

    def _wait(self, entry: Tuple[float, float, Any]) -> None:
        """Queue one waiting job, allocating the queue on the first."""
        queue = self._queue
        if queue is _NO_QUEUE:
            queue = self._queue = deque()
        queue.append(entry)
        if len(queue) > self.max_queue_len:
            self.max_queue_len = len(queue)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def _start(self, arrival: float, service_time: float, done: Callable) -> None:
        self.busy += 1
        self.wait_time_total += self.engine.now - arrival
        check = self.engine.check
        if check.enabled:
            check.resource_event(self)
        self.engine.schedule(service_time, self._finish, service_time, done)

    def _finish(self, service_time: float, done: Callable) -> None:
        self.busy -= 1
        self.jobs_served += 1
        self.busy_time += service_time
        check = self.engine.check
        if check.enabled:
            check.resource_event(self)
        done()
        if self._queue and self.busy < self.capacity:
            arrival, svc, cb = self._queue.popleft()
            self._start(arrival, svc, cb)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of server-time spent busy over ``elapsed`` ns."""
        elapsed = elapsed if elapsed is not None else self.engine.now
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.capacity)

