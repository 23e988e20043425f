"""Sweep descriptions: one simulation point.

A :class:`SweepPoint` is the unit of work of the execution layer: one
independent cluster simulation, fully described by value (everything it
carries pickles cleanly into a spawn-started worker).  A grid is a list
of points; result tables built from it are identical however the points
are executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.runner.fingerprint import code_version, digest, fingerprint
from repro.systems.configs import SystemConfig
from repro.workloads.spec import AppSpec


@dataclass(frozen=True)
class SweepPoint:
    """One independent cluster simulation, described by value.

    Mirrors the signature of :func:`repro.systems.cluster.simulate`
    minus the in-process observers (tracer, metrics) — points must stay
    cacheable and process-portable, and observers are neither.
    """

    config: SystemConfig
    app: AppSpec
    rps: float
    n_servers: int = 2
    duration_s: float = 0.03
    seed: int = 1
    warmup_fraction: float = 0.25
    #: Arrival process: a registry name, a RateProfile instance, or a
    #: TraceReplay (all fingerprint by value into the cache key).
    arrivals: object = "poisson"
    faults: Optional[object] = None         # FaultSchedule or None
    resilience: Optional[object] = None     # ResilienceConfig or None
    dc: Optional[object] = None             # repro.dc.DcConfig or None
    hybrid: Optional[object] = None         # repro.hybrid.HybridConfig
    #: Run under the invariant sanitizer (repro.check).  Deliberately
    #: NOT part of :meth:`key`: checks observe the simulation without
    #: perturbing it, so the result is the same either way — but check
    #: runs bypass the cache entirely (see ``run_points``) because a
    #: cache hit would skip the verification the caller asked for.
    check: bool = False

    @property
    def label(self) -> str:
        """Human-readable point name for progress lines and logs."""
        return (f"{self.config.name}/{self.app.name}"
                f"@{self.rps:g} seed{self.seed}")

    def key(self) -> str:
        """Content-addressed cache key of this point.

        Returns:
            SHA-256 hex digest over the canonical fingerprint of every
            input plus :func:`~repro.runner.fingerprint.code_version`,
            so editing any simulator source invalidates the key.
        """
        return digest({
            "code": code_version(),
            "config": fingerprint(self.config),
            "app": fingerprint(self.app),
            "rps": self.rps,
            "n_servers": self.n_servers,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "arrivals": fingerprint(self.arrivals),
            "faults": fingerprint(self.faults),
            "resilience": fingerprint(self.resilience),
            "dc": fingerprint(self.dc),
            "hybrid": fingerprint(self.hybrid),
        })

    def run(self):
        """Execute the simulation for this point.

        Returns:
            The :class:`~repro.systems.cluster.RunResult` of one
            untraced :func:`~repro.systems.cluster.simulate` call.
            With ``check`` set, the run executes under a strict
            :class:`repro.check.CheckContext` and raises
            :class:`repro.check.CheckError` on any violation.
        """
        from repro.systems.cluster import simulate

        checker = None
        if self.check:
            from repro.check import CheckContext

            checker = CheckContext(strict=True)
        return simulate(self.config, self.app, rps_per_server=self.rps,
                        n_servers=self.n_servers,
                        duration_s=self.duration_s, seed=self.seed,
                        warmup_fraction=self.warmup_fraction,
                        arrivals=self.arrivals, faults=self.faults,
                        resilience=self.resilience, check=checker,
                        dc=self.dc, hybrid=self.hybrid)
