"""Datacenter-tier configuration (:class:`DcConfig`).

One frozen dataclass describes the whole front-end tier of a
multi-server run: which load-balancing policy routes external arrivals,
the LB-to-server network hop, how aggressively services are replicated
across servers, and whether the reactive autoscaler may add/drain
server replicas.  ``dc=None`` (the default everywhere) disables the
tier entirely — those runs stay byte-identical to the pre-dc simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The registered front-end policy names (the CLI's ``--lb`` choices),
#: sorted; :data:`repro.dc.lb.LB_FACTORIES` maps each to its policy.
#: Spelled out here so validating a config never loads the LB module.
LB_NAMES = ("affinity", "least", "p2c", "random", "rr")


@dataclass(frozen=True)
class DcConfig:
    """Knobs of the datacenter tier (front-end LB + placement + scaling).

    ``lb``
        Front-end routing policy (see :mod:`repro.dc.lb`): ``rr``,
        ``random``, ``p2c`` (power-of-two-choices), ``least``
        (least-outstanding) or ``affinity`` (request-type affinity with
        load-based spill, per Affinity Tailor).
    ``lb_latency_ns``
        One-way LB->server hop, layered in front of the server's own
        fabric ingress (which :class:`~repro.net.fabric.InterServerFabric`
        already charges).  0 keeps ``lb=rr, n_servers=1`` byte-identical
        to the plain single-server path.
    ``replication``
        Service placement: each non-root service is hosted on this many
        servers (a deterministic :class:`~repro.dc.placement.PlacementPlan`
        stripe); 0 means every service on every server (the pre-dc
        behaviour).  Root services are always placed everywhere — the
        LB must be free to route any root anywhere.
    ``spill_margin``
        Outstanding-request gap above the least-loaded server that makes
        the affinity policy spill away from a request type's home server.
    ``autoscale`` / ``min_servers``
        Arm the reactive :class:`~repro.dc.autoscale.Autoscaler`: every
        ``autoscale_interval_ns`` of simulated time it compares mean
        active-server utilization against the two thresholds and
        activates one drained server (above ``scale_up_util``) or drains
        one active server (below ``scale_down_util``, never under
        ``min_servers``).  Drained servers finish their in-flight work —
        the LB just stops routing new roots to them.
    """

    lb: str = "rr"
    lb_latency_ns: float = 0.0
    replication: int = 0
    spill_margin: int = 4
    autoscale: bool = False
    min_servers: int = 1
    autoscale_interval_ns: float = 500_000.0
    scale_up_util: float = 0.75
    scale_down_util: float = 0.20

    def __post_init__(self):
        """Validate against the LB registry and sanity-check the knobs."""
        if self.lb not in LB_NAMES:
            raise ValueError(f"unknown lb policy {self.lb!r}; "
                             f"known: {list(LB_NAMES)}")
        if self.lb_latency_ns < 0:
            raise ValueError("lb_latency_ns must be >= 0")
        if self.replication < 0:
            raise ValueError("replication must be >= 0 (0 = replicate "
                             "everywhere)")
        if self.spill_margin < 0:
            raise ValueError("spill_margin must be >= 0")
        if self.min_servers < 1:
            raise ValueError("min_servers must be >= 1")
        if self.autoscale_interval_ns <= 0:
            raise ValueError("autoscale_interval_ns must be positive")
        if not 0.0 <= self.scale_down_util < self.scale_up_util <= 1.0:
            raise ValueError("need 0 <= scale_down_util < scale_up_util "
                             "<= 1")
