"""repro.dc — the datacenter tier over multi-server uManycore racks.

Front-end load balancer (:class:`FrontEndLB` + the pluggable policies
of :mod:`repro.dc.lb`), deterministic service placement/replication
(:class:`PlacementPlan`), and reactive utilization-driven autoscaling
(:class:`Autoscaler`), all configured through one opt-in frozen
:class:`DcConfig` threaded through ``simulate(..., dc=...)``, the sweep
runner and the CLI.  ``dc=None`` keeps every run byte-identical to the
pre-dc simulator.  Only :class:`DcConfig` and ``LB_NAMES`` load with
the package; the tier itself loads when a simulation switches it on.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.dc.config import LB_NAMES, DcConfig

if TYPE_CHECKING:
    from repro.dc.autoscale import Autoscaler
    from repro.dc.lb import FrontEndLB, LB_FACTORIES, get_lb_policy
    from repro.dc.placement import PlacementPlan

__all__ = [
    "Autoscaler",
    "DcConfig",
    "FrontEndLB",
    "LB_FACTORIES",
    "LB_NAMES",
    "PlacementPlan",
    "get_lb_policy",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".autoscale": ("Autoscaler",),
    ".lb": ("FrontEndLB", "LB_FACTORIES", "get_lb_policy"),
    ".placement": ("PlacementPlan",),
})
