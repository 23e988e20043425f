"""Scheduling policies and queueing-theory references.

The unified policy layer for the simulator's three dispatch decision
points:

* **NIC -> village** — :mod:`repro.sched.dispatch`: round-robin (the
  Section 4.2 hardware default), random (Figure 3), least-occupancy
  and locality/affinity-aware with load-based spill.
* **intra-village ordering** — :mod:`repro.sched.policies`: FCFS (the
  Section 4.3 hardware), SRPT, SJF from measured service times, and
  deadline-aware (EDF).
* **inter-village work stealing** — :mod:`repro.sched.stealing`:
  first-peer (the original behaviour) and most-loaded-victim.

The Request Queue hardware serves FCFS (Section 4.3); the paper argues
SRPT would gain little for microservices because same-service requests
have similar durations and blocking calls already interleave work.
Every policy is implemented so the claim can be tested (the figS
experiment compares them), and :mod:`repro.sched.queueing` provides
M/M/c formulas used to validate the simulator against theory.

Each module loads on first access to one of its names, so a simulation
never loads the queueing formulas unless the hybrid fast path needs
them.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sched.dispatch import (
        DISPATCH_NAMES, DispatchPolicy, get_dispatch_policy,
    )
    from repro.sched.policies import (
        FCFS_POLICY, POLICY_NAMES, SRPT_POLICY, DequeuePolicy, get_policy,
    )
    from repro.sched.queueing import erlang_c, mmc_mean_sojourn, mmc_mean_wait
    from repro.sched.stealing import STEAL_NAMES, StealPolicy, get_steal_policy

__all__ = [
    "DequeuePolicy",
    "DispatchPolicy",
    "StealPolicy",
    "FCFS_POLICY",
    "SRPT_POLICY",
    "POLICY_NAMES",
    "DISPATCH_NAMES",
    "STEAL_NAMES",
    "get_policy",
    "get_dispatch_policy",
    "get_steal_policy",
    "erlang_c",
    "mmc_mean_wait",
    "mmc_mean_sojourn",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".dispatch": ("DISPATCH_NAMES", "DispatchPolicy", "get_dispatch_policy"),
    ".policies": ("FCFS_POLICY", "POLICY_NAMES", "SRPT_POLICY",
                  "DequeuePolicy", "get_policy"),
    ".queueing": ("erlang_c", "mmc_mean_sojourn", "mmc_mean_wait"),
    ".stealing": ("STEAL_NAMES", "StealPolicy", "get_steal_policy"),
})
