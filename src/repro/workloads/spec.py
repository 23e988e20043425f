"""Service-graph intermediate representation.

An application is a tree of services: a request to a service executes
compute segments separated by *blocking calls* — synchronous RPCs to
downstream services or remote-storage accesses (Section 2.1).  A service
with N calls has N+1 compute segments.  Per-request segment lengths are
sampled (lognormal around the spec mean), which produces the service-time
variability the schedulers must absorb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.cpu.core_model import SegmentProfile

#: Sentinel call target: a remote storage access rather than another service.
STORAGE = "__storage__"

#: Default memory/branch behaviour of a microservice handler segment.
MICRO_SEGMENT_PROFILE = SegmentProfile(ilp=3.0, l1_mpki=4.0,
                                       l2_miss_fraction=0.10,
                                       branch_misp_mpki=1.0)


@dataclass(frozen=True)
class CallSpec:
    """One synchronous blocking call issued between compute segments."""

    target: str            # service name, or STORAGE

    @property
    def is_storage(self) -> bool:
        return self.target == STORAGE


@dataclass(frozen=True)
class ServiceSpec:
    """Static description of one microservice."""

    name: str
    segment_instructions: float            # mean instructions per segment
    calls: Tuple[CallSpec, ...] = ()
    segment_cv: float = 1.0                # lognormal coeff. of variation
    profile: SegmentProfile = MICRO_SEGMENT_PROFILE
    parallelism: int = 1                   # worker threads per instance

    def __post_init__(self):
        if self.segment_instructions <= 0:
            raise ValueError(f"{self.name}: segment_instructions must be > 0")
        if self.segment_cv < 0:
            raise ValueError(f"{self.name}: segment_cv must be >= 0")
        # Lognormal parameters of the segment lengths, computed once
        # (plain attributes, not fields: equality, hashing and the
        # runner's fingerprint see only the fields).
        sigma2 = math.log(1.0 + self.segment_cv ** 2)
        object.__setattr__(self, "_mu",
                           math.log(self.segment_instructions) - sigma2 / 2.0)
        object.__setattr__(self, "_sigma", math.sqrt(sigma2))

    @property
    def n_segments(self) -> int:
        return len(self.calls) + 1

    def sample_segments(self, rng: np.random.Generator) -> List[float]:
        """Per-request instruction counts for each compute segment."""
        n = len(self.calls) + 1
        if self.segment_cv == 0:
            return [self.segment_instructions] * n
        return rng.lognormal(self._mu, self._sigma, size=n).tolist()


@dataclass(frozen=True)
class AppSpec:
    """An application: a root service plus every reachable service."""

    name: str
    root: str
    services: Dict[str, ServiceSpec] = field(default_factory=dict)

    def __post_init__(self):
        if self.root not in self.services:
            raise ValueError(f"{self.name}: root {self.root!r} not in services")
        for spec in self.services.values():
            for call in spec.calls:
                if not call.is_storage and call.target not in self.services:
                    raise ValueError(
                        f"{self.name}: {spec.name} calls unknown service "
                        f"{call.target!r}")
        self._check_acyclic()

    def _check_acyclic(self):
        state: Dict[str, int] = {}

        def visit(name: str):
            if state.get(name) == 1:
                raise ValueError(f"{self.name}: call cycle through {name!r}")
            if state.get(name) == 2:
                return
            state[name] = 1
            for call in self.services[name].calls:
                if not call.is_storage:
                    visit(call.target)
            state[name] = 2

        visit(self.root)

    def mean_rpc_count(self) -> float:
        """Expected downstream RPCs triggered by one root request."""

        def count(name: str) -> float:
            total = 0.0
            for call in self.services[name].calls:
                total += 1.0
                if not call.is_storage:
                    total += count(call.target)
            return total

        return count(self.root)

    def mean_instructions(self) -> float:
        """Expected total instructions executed per root request."""

        def count(name: str) -> float:
            spec = self.services[name]
            total = spec.segment_instructions * spec.n_segments
            for call in spec.calls:
                if not call.is_storage:
                    total += count(call.target)
            return total

        return count(self.root)
