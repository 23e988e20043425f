"""Deterministic fault injection and resilience (tail under failures).

The paper's thesis — tail latency at scale — meets its hardest test when
components fail.  This package adds a seed-deterministic fault model on
top of the simulator:

* :class:`FaultSchedule` — a concrete, replayable list of fail/recover/
  degrade events for villages, cores, ICN links and village NICs.
* :class:`FaultInjector` — turns the schedule into engine events and
  flips component state (villages purge their RQ and blackhole; links
  disappear from the topology; NICs drop traffic).
* :class:`ResilienceConfig` — the system-software response: per-call
  timeout, capped exponential-backoff retries, and optional request
  hedging, threaded through the RPC layer by the server.

An empty schedule and a ``None`` resilience config are the default
everywhere, and in that mode every code path is byte-identical to a
simulator that never loaded this package.  The schedule and the
resilience config load with the package; the injector loads when a
simulation installs a schedule.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.faults.resilience import ResilienceConfig
from repro.faults.schedule import FaultEvent, FaultSchedule, merge

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector, fault_inventory

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "ResilienceConfig",
    "fault_inventory",
    "merge",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".injector": ("FaultInjector", "fault_inventory"),
})
