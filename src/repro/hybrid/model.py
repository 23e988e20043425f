"""Calibrated analytic models behind the hybrid fast path.

Two pieces live here:

* :class:`EmpiricalDist` — a frozen sample of latencies gathered during
  the detailed warm-up, answering quantile and inverse-CDF sampling
  queries.  Committed services draw their analytic completion latencies
  from this distribution, so the fast path reproduces the *measured*
  latency shape rather than an assumed one.
* :class:`MGkModel` — an M/G/k multi-server queue (Allen–Cunneen
  approximation over Erlang C) parameterized from measured moments.
  It supplies sanity numbers for ``stats["hybrid"]`` (utilization,
  saturation rate) and the fig18 warm-start saturation estimate via
  :func:`service_demand_ns`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.cpu.coherence import CoherenceConfig, CoherenceModel
from repro.cpu.core_model import CoreModel
from repro.sched.queueing import erlang_c


class EmpiricalDist:
    """Inverse-CDF sampler over a frozen set of measured latencies."""

    def __init__(self, samples: Sequence[float]):
        if len(samples) == 0:
            raise ValueError("EmpiricalDist needs at least one sample")
        self._sorted = np.sort(np.asarray(samples, dtype=float))
        #: The same values as Python floats: :meth:`sample` runs per
        #: elided request and must hand the engine a ``float``.
        self._values = self._sorted.tolist()

    def __len__(self) -> int:
        return int(self._sorted.size)

    @property
    def mean(self) -> float:
        return float(self._sorted.mean())

    def quantile(self, q: float) -> float:
        return float(np.quantile(self._sorted, q))

    def sample(self, rng) -> float:
        """Draw one value by interpolated inverse-CDF over the samples.

        ``rng`` is anything with a ``random()`` method: a
        ``numpy.random.Generator`` or a
        :class:`~repro.sim.rng.ScalarDraws` on one.
        """
        values = self._values
        last = len(values) - 1
        pos = rng.random() * last
        lo = int(pos)
        hi = min(lo + 1, last)
        frac = pos - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac


class MGkModel:
    """M/G/k queue via the Allen–Cunneen approximation.

    ``rate_rps`` is the arrival rate, ``service_ns`` the mean service
    demand per job, ``servers`` the number of parallel servers (cores),
    ``ca2``/``cs2`` the squared coefficients of variation of the
    inter-arrival and service processes.
    """

    def __init__(self, rate_rps: float, service_ns: float, servers: int,
                 ca2: float = 1.0, cs2: float = 1.0):
        if rate_rps < 0 or service_ns <= 0 or servers < 1:
            raise ValueError("invalid M/G/k parameters")
        self.rate_rps = rate_rps
        self.service_ns = service_ns
        self.servers = servers
        self.ca2 = max(0.0, ca2)
        self.cs2 = max(0.0, cs2)

    @property
    def utilization(self) -> float:
        return self.rate_rps * self.service_ns * 1e-9 / self.servers

    @property
    def saturation_rps(self) -> float:
        """Arrival rate at which utilization reaches 1."""
        return self.servers / (self.service_ns * 1e-9)

    def mean_wait_ns(self) -> float:
        """Mean queueing delay (excluding service) per Allen–Cunneen."""
        rho = self.utilization
        if rho >= 1.0:
            return math.inf
        if self.rate_rps == 0:
            return 0.0
        pw = erlang_c(self.rate_rps, 1e9 / self.service_ns, self.servers)
        wq_mmk = pw * self.service_ns / (self.servers * (1.0 - rho))
        return (self.ca2 + self.cs2) / 2.0 * wq_mmk

    def as_dict(self) -> dict:
        return {
            "rate_rps": self.rate_rps,
            "service_ns": self.service_ns,
            "servers": self.servers,
            "utilization": self.utilization,
            "saturation_rps": self.saturation_rps,
        }


def service_demand_ns(config, app) -> float:
    """Expected contention-free core demand of one root request.

    Walks the expected call tree of ``app`` charging every visited
    service its mean compute segments (through the same
    :class:`CoreModel` CPI the detailed simulator uses, including the
    coherence directory term and the per-segment software-RPC cost).
    Queueing, network, and storage time are deliberately excluded: the
    result is the *demand* an M/G/k saturation estimate needs, not a
    latency prediction.
    """
    core = CoreModel(config.core)
    coherence = CoherenceModel(CoherenceConfig(
        domain_cores=config.coherence_domain_cores,
        total_cores=config.n_cores))
    mem_cycles = (config.memory_latency_cycles
                  + coherence.directory_roundtrip_cycles())

    def demand(name: str) -> float:
        spec = app.services[name]
        per_segment = core.segment_time_ns(
            spec.segment_instructions, spec.profile,
            config.l2_latency_cycles, mem_cycles) + config.sw_rpc_core_ns
        total = per_segment * spec.n_segments
        for call in spec.calls:
            if not call.is_storage:
                total += demand(call.target)
        return total

    return demand(app.root)


def saturation_estimate_rps(config, app, util_target: float = 0.85) -> float:
    """Analytic peak-throughput estimate used to seed fig18's search.

    The machine saturates when aggregate core demand reaches
    ``util_target`` of total core capacity; beyond that, p99 under any
    QoS threshold is lost to queueing growth.
    """
    demand = service_demand_ns(config, app)
    return util_target * config.n_cores / (demand * 1e-9)
