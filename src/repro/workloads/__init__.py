"""Workload generators: service graphs, arrivals, and trace statistics.

Service specs and arrival profiles load with the package; the app
catalogues, synthetic apps and trace replay load on first access.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.workloads.arrival import (ARRIVAL_NAMES, PROFILES, BurstyProfile,
                                     ConstantProfile, DiurnalProfile,
                                     FlashCrowdProfile, MmppProfile,
                                     PiecewiseProfile, RateProfile,
                                     arrival_times, bursty_arrival_times,
                                     get_profile)
from repro.workloads.spec import STORAGE, AppSpec, CallSpec, ServiceSpec

if TYPE_CHECKING:
    from repro.workloads.alibaba import AlibabaTraceGenerator
    from repro.workloads.deathstar import (
        DEATHSTAR_APPS, SOCIAL_NETWORK_APPS, deathstar_app,
        social_network_app,
    )
    from repro.workloads.replay import (
        TraceReplay, load_trace, resolve_trace, sample_alibaba_trace,
        save_trace,
    )
    from repro.workloads.synthetic import (
        SYNTHETIC_DISTRIBUTIONS, synthetic_app,
    )

__all__ = [
    "ServiceSpec",
    "CallSpec",
    "AppSpec",
    "STORAGE",
    "arrival_times",
    "bursty_arrival_times",
    "RateProfile",
    "ConstantProfile",
    "BurstyProfile",
    "DiurnalProfile",
    "MmppProfile",
    "FlashCrowdProfile",
    "PiecewiseProfile",
    "PROFILES",
    "ARRIVAL_NAMES",
    "get_profile",
    "TraceReplay",
    "load_trace",
    "save_trace",
    "sample_alibaba_trace",
    "resolve_trace",
    "SOCIAL_NETWORK_APPS",
    "social_network_app",
    "DEATHSTAR_APPS",
    "deathstar_app",
    "synthetic_app",
    "SYNTHETIC_DISTRIBUTIONS",
    "AlibabaTraceGenerator",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".alibaba": ("AlibabaTraceGenerator",),
    ".deathstar": ("DEATHSTAR_APPS", "SOCIAL_NETWORK_APPS", "deathstar_app",
                   "social_network_app"),
    ".replay": ("TraceReplay", "load_trace", "resolve_trace",
                "sample_alibaba_trace", "save_trace"),
    ".synthetic": ("SYNTHETIC_DISTRIBUTIONS", "synthetic_app"),
})
