"""uManycore core machinery: request queues, context switching, villages.

This package implements the paper's primary contribution (Section 4):
hardware request queuing/scheduling (4.3), hardware context switching
(4.4), and the village execution model (4.1).  The full-system assembly
of villages, clusters, ICN and NICs lives in :mod:`repro.systems`.
"""

from repro.core.context_switch import (
    CS_PRESETS,
    HARDWARE_CS,
    LINUX_CS,
    SHENANGO_CS,
    SHINJUKU_CS,
    ZYGOS_CS,
    ContextSwitchConfig,
    SchedulerDomain,
)
from repro.core.request import RequestRecord, RequestStatus
from repro.core.request_queue import RequestQueue
from repro.core.village import Village

__all__ = [
    "RequestRecord",
    "RequestStatus",
    "RequestQueue",
    "Village",
    "ContextSwitchConfig",
    "SchedulerDomain",
    "HARDWARE_CS",
    "SHINJUKU_CS",
    "SHENANGO_CS",
    "ZYGOS_CS",
    "LINUX_CS",
    "CS_PRESETS",
]
