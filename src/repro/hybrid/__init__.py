"""repro.hybrid — analytic steady-state fast path with guard-and-abort.

Once a service reaches steady state (detected over windowed telemetry),
its per-event simulation is swapped for a calibrated empirical/M-G-k
model that answers completion events analytically; cheap guards abort
back to detailed simulation on drift, faults, or scaling actions.
Only :class:`HybridConfig` loads with the package; the controller and
its models load when a simulation switches the fast path on.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.hybrid.config import HybridConfig

if TYPE_CHECKING:
    from repro.hybrid.controller import HybridController
    from repro.hybrid.detector import SteadyStateDetector
    from repro.hybrid.model import (
        EmpiricalDist, MGkModel, saturation_estimate_rps, service_demand_ns,
    )

__all__ = [
    "HybridConfig",
    "HybridController",
    "SteadyStateDetector",
    "EmpiricalDist",
    "MGkModel",
    "saturation_estimate_rps",
    "service_demand_ns",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".controller": ("HybridController",),
    ".detector": ("SteadyStateDetector",),
    ".model": ("EmpiricalDist", "MGkModel", "saturation_estimate_rps",
               "service_demand_ns"),
})
