"""Multi-server cluster simulation harness (Section 5: 10-server machines).

``simulate`` builds N identical servers behind an inter-server fabric and
a shared storage tier, drives one application with Poisson arrivals at a
given per-server load, and returns latency/throughput statistics with the
warm-up window excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.check.context import NULL_CHECK, NullCheckContext
from repro.dc.autoscale import Autoscaler
from repro.dc.config import DcConfig
from repro.dc.lb import AffinityLB, FrontEndLB, get_lb_policy
from repro.dc.placement import PlacementPlan
from repro.faults import FaultInjector, FaultSchedule, ResilienceConfig
from repro.hybrid.config import HybridConfig
from repro.hybrid.controller import HybridController
from repro.metrics.latency import LatencyRecorder, LatencySummary, \
    pooled_summary
from repro.net.fabric import FabricConfig, InterServerFabric, StorageBackend
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.systems.configs import SystemConfig
from repro.systems.server import Server
from repro.telemetry import MetricsRegistry, NullTracer, aggregate_breakdown
from repro.workloads.arrival import get_profile
from repro.workloads.spec import AppSpec


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated run."""

    system: str
    app: str
    rps_per_server: float
    n_servers: int
    duration_s: float
    summary: LatencySummary
    completed: int
    rejected: int
    offered: int
    #: The run's tracer when tracing was enabled (else None).
    tracer: Optional[object] = None
    #: The run's metrics registry when enabled (else None), closed when
    #: the run ended: gauge names, sampled series, counters and
    #: histograms, with no reader left pointing into the simulator.
    metrics: Optional[MetricsRegistry] = None
    #: Warm-up cutoff used for the summary (ns) — also applied to the
    #: span-derived breakdown so both cover the same request population.
    warmup_ns: float = 0.0
    #: Requests that came back as errors (retry budget exhausted or the
    #: root deadline blown); zero outside fault experiments.
    failed: int = 0
    #: Fault-injection and resilience counters; None in fault-free runs
    #: (keeps ``as_dict`` byte-identical to the pre-fault simulator).
    fault_stats: Optional[dict] = None
    #: Scheduling-policy counters (steals, bypasses, dispatch spills);
    #: None under the default policies so default output stays
    #: byte-identical to the pre-policy-layer simulator.
    sched_stats: Optional[dict] = None
    #: Datacenter-tier stats (LB routing, placement proxying, autoscale
    #: events, per-server/pooled tails); None when ``dc`` is off so
    #: non-dc output stays byte-identical to the pre-dc simulator.
    dc_stats: Optional[dict] = None
    #: Hybrid fast-path stats (commits/aborts/events elided, per-service
    #: models); None when ``hybrid`` is off so non-hybrid output stays
    #: byte-identical to the pre-hybrid simulator.
    hybrid_stats: Optional[dict] = None

    @property
    def throughput_rps(self) -> float:
        return self.completed / (self.duration_s * self.n_servers)

    @property
    def mean_ns(self) -> float:
        return self.summary.mean

    @property
    def p99_ns(self) -> float:
        return self.summary.p99

    @property
    def goodput_rps(self) -> float:
        """Successful completions per server-second (excludes failed and
        rejected requests; equals ``throughput_rps`` in fault-free runs)."""
        return self.completed / (self.duration_s * self.n_servers)

    @property
    def availability(self) -> float:
        """Fraction of answered requests that succeeded."""
        answered = self.completed + self.failed + self.rejected
        return self.completed / answered if answered else 1.0

    def breakdown(self) -> Optional[dict]:
        """Span-derived per-category latency decomposition (see
        :mod:`repro.telemetry.breakdown`); None without tracing."""
        if self.tracer is None or not getattr(self.tracer, "enabled", False):
            return None
        return aggregate_breakdown(self.tracer, after_ns=self.warmup_ns)

    def as_dict(self) -> dict:
        """Machine-readable run summary (the ``--json`` payload)."""
        d = {
            "system": self.system,
            "app": self.app,
            "rps_per_server": self.rps_per_server,
            "n_servers": self.n_servers,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "throughput_rps": self.throughput_rps,
            "latency_ns": self.summary.as_dict(),
            "tail_to_average": self.summary.tail_to_average,
        }
        bd = self.breakdown()
        if bd is not None:
            d["breakdown"] = bd
        if self.metrics is not None:
            d["metrics"] = self.metrics.as_dict()
        if self.fault_stats is not None:
            d["failed"] = self.failed
            d["availability"] = self.availability
            d["goodput_rps"] = self.goodput_rps
            d["faults"] = self.fault_stats
        if self.sched_stats is not None:
            d["sched"] = self.sched_stats
        if self.dc_stats is not None:
            d["dc"] = self.dc_stats
        if self.hybrid_stats is not None:
            d["hybrid"] = self.hybrid_stats
        return d


class ClusterSimulation:
    """Owns the engine, fabric, storage and servers for one run."""

    def __init__(self, config: SystemConfig, app: AppSpec,
                 rps_per_server: float, n_servers: int = 4,
                 duration_s: float = 0.02, seed: int = 0,
                 warmup_fraction: float = 0.25,
                 fabric_config: Optional[FabricConfig] = None,
                 arrivals="poisson",
                 tracer: Optional[NullTracer] = None,
                 metrics_interval_ns: Optional[float] = None,
                 faults: Optional[FaultSchedule] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 check: Optional[NullCheckContext] = None,
                 dc: Optional[DcConfig] = None,
                 hybrid: Optional[HybridConfig] = None):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if not 0 <= warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        #: Resolved arrival generator: a RateProfile (named profiles and
        #: instances) or a TraceReplay; ``self.arrivals`` keeps the raw
        #: argument for reporting.
        self.rate_profile = get_profile(arrivals)
        self.arrivals = arrivals
        self.config = config
        self.app = app
        self.rps_per_server = rps_per_server
        self.n_servers = n_servers
        self.duration_s = duration_s
        self.warmup_fraction = warmup_fraction
        self.engine = Engine()
        # Invariant sanitizer (repro.check): installed before any
        # component is built so every queue/resource registers with it.
        self.check = check if check is not None else NULL_CHECK
        if check is not None:
            self.engine.check = check
        self.tracer = tracer
        if tracer is not None:
            self.engine.tracer = tracer     # every layer reports through it
        self.metrics: Optional[MetricsRegistry] = \
            MetricsRegistry() if metrics_interval_ns else None
        self.metrics_interval_ns = metrics_interval_ns
        self.streams = RngStreams(seed)
        self.fabric = InterServerFabric(self.engine, n_servers, fabric_config)
        self.storage = StorageBackend(self.engine,
                                      self.streams.stream("storage"),
                                      fabric_config)
        apps: Dict[str, AppSpec] = {app.name: app}
        # Datacenter tier (repro.dc): service placement decides which
        # services each server hosts; the front-end LB owns routing.
        self.dc = dc
        self.placement: Optional[PlacementPlan] = None
        if dc is not None and dc.replication > 0:
            services = sorted({s for a in apps.values() for s in a.services})
            roots = {a.root for a in apps.values()}
            self.placement = PlacementPlan.build(
                services, roots, n_servers, dc.replication)
        self.servers = [
            Server(self.engine, i, config, apps,
                   self.streams.stream(f"server{i}"), self.fabric,
                   self.storage,
                   hosted=(self.placement.services_on(i)
                           if self.placement is not None else None))
            for i in range(n_servers)]
        for server in self.servers:
            server.peers = self.servers
            server.placement_plan = self.placement
        self.lb: Optional[FrontEndLB] = None
        self.autoscaler: Optional[Autoscaler] = None
        self.server_answered: Optional[list] = None
        self.server_recorders: Optional[list] = None
        if dc is not None:
            policy = get_lb_policy(dc.lb, dc.spill_margin)
            lb_rng = self.streams.stream("lb") if policy.needs_rng else None
            self.lb = FrontEndLB(n_servers, policy, rng=lb_rng,
                                 check=self.check)
            self.server_answered = [0] * n_servers
            self.server_recorders = [
                LatencyRecorder(name=f"{config.name}/s{i}")
                for i in range(n_servers)]
            if dc.autoscale:
                self.autoscaler = Autoscaler(self.engine, self.lb,
                                             self.servers, dc,
                                             check=self.check)
        self.recorder = LatencyRecorder(name=f"{config.name}/{app.name}")
        self.offered = 0
        self.rejected = 0
        self.failed = 0
        # Fault injection + resilience.  An *empty* schedule is treated
        # exactly like no schedule (falsy), so default runs never install
        # an injector, arm a timeout, or take a new branch.
        self.faults = faults if faults else None
        if self.faults is not None and resilience is None:
            resilience = ResilienceConfig()   # faults demand a response
        self.resilience = resilience
        self.injector: Optional[FaultInjector] = None
        if self.resilience is not None:
            for server in self.servers:
                server.resilience = self.resilience
        if self.faults is not None:
            self.injector = FaultInjector(self.engine, self.servers,
                                          self.faults)
        # Hybrid fast path (repro.hybrid): built last so its structural
        # guards can see the injector/autoscaler; installed in run().
        self.hybrid: Optional[HybridController] = \
            HybridController(self, hybrid) if hybrid is not None else None
        if self.metrics is not None:
            self._register_gauges()

    def install_faults(self, faults: Optional[FaultSchedule],
                       resilience: Optional[ResilienceConfig] = None) -> None:
        """Arm fault injection after construction.

        Lets callers inspect the built cluster (topology node names, the
        village inventory) to pick fault targets, then install the
        schedule — must be called before :meth:`run`.
        """
        self.faults = faults if faults else None
        if self.faults is None and resilience is None:
            return
        if resilience is None and self.resilience is None:
            resilience = ResilienceConfig()
        if resilience is not None:
            self.resilience = resilience
            for server in self.servers:
                server.resilience = resilience
        if self.faults is not None:
            self.injector = FaultInjector(self.engine, self.servers,
                                          self.faults)

    def _register_gauges(self) -> None:
        """Periodic time series of the paper's congestion indicators:
        RQ depth, village utilization, NIC buffer occupancy, ICN link
        contention (Section 6 / uqSim-style per-stage visibility)."""
        reg = self.metrics
        for server in self.servers:
            s = server  # bind per-iteration for the closures below
            name = f"s{s.server_id}"
            reg.gauge(f"{name}.rq_depth",
                      lambda s=s: sum(v.rq.occupancy for v in s.villages))
            reg.gauge(f"{name}.rq_depth_max",
                      lambda s=s: max(v.rq.occupancy for v in s.villages))
            reg.gauge(f"{name}.utilization", lambda s=s: s.utilization())
            reg.gauge(f"{name}.nic_buffer", lambda s=s: s.top_nic.buffered)
            reg.gauge(f"{name}.icn_queued",
                      lambda s=s: s.network.queued_messages())

    def _schedule_arrivals(self) -> None:
        """Draw every root arrival up front and batch-insert it.

        Builds one ``(times, target, args)`` row per arrival process:

        * with a front-end LB, one shared process for the whole cluster,
          routed per request.  It reuses the ``arrivals0`` stream at the
          aggregate rate, so lb=rr with one server replays the
          single-server arrival sequence exactly;
        * a replayed trace records *cluster-wide* arrivals; without an
          LB it is dealt round-robin, ``times[i::n]`` per server (each
          slice stays sorted) — the spread an L4 balancer would produce;
        * otherwise each server draws from its own ``arrivals{i}`` stream.

        Streams are seeded by name, so the drawing order does not matter;
        rows are scheduled in table order (the LB row, or servers
        0..n-1), which fixes the events' ``(time, seq)`` order.
        """
        profile = self.rate_profile
        stream = self.streams.stream
        if self.lb is not None or getattr(profile, "is_replay", False):
            rate = self.rps_per_server * self.n_servers
            times = profile.generate(rate, self.duration_s,
                                     stream("arrivals0"))
            if self.lb is not None:
                rows = [(times, self._route, ())]
            else:
                n = self.n_servers
                rows = [(times[i::n], self._issue, (server,))
                        for i, server in enumerate(self.servers)]
        else:
            rows = [(profile.generate(self.rps_per_server, self.duration_s,
                                      stream(f"arrivals{i}")),
                     self._issue, (server,))
                    for i, server in enumerate(self.servers)]
        for times, target, args in rows:
            times = times.tolist()
            self.offered += len(times)
            if self.check.enabled:
                self.check.root_offered(len(times))
            if times:
                self.engine.schedule_at_batch(times, target, *args,
                                              append_time=True)

    def _route(self, arrival_ns: float) -> None:
        """LB entry point: pick a server for one arriving root request."""
        sid = self.lb.route(self.app.name)
        server = self.servers[sid]
        if self.dc.lb_latency_ns > 0:
            self.engine.schedule(self.dc.lb_latency_ns, self._issue,
                                 server, arrival_ns)
        else:
            self._issue(server, arrival_ns)

    def _issue(self, server: Server, arrival_ns: float) -> None:
        if self.hybrid is not None \
                and self.hybrid.intercept_root(server, arrival_ns):
            return
        server.client_request(
            self.app.name, lambda rec: self.root_done(server, arrival_ns, rec))

    def root_done(self, server: Server, arrival_ns: float,
                  rec=None) -> None:
        """The root ledger: one answered root request, issued to
        ``server`` at ``arrival_ns``.  Balances the LB, the check
        ledger, the recorders and the metrics; ``rec`` is None for an
        analytic (hybrid) completion, which always succeeds."""
        if self.lb is not None:
            self.lb.request_done(server.server_id)
            self.server_answered[server.server_id] += 1
        if rec is not None and rec.rejected:
            self.rejected += 1
            if self.check.enabled:
                self.check.root_done("rejected")
            if self.metrics is not None:
                self.metrics.counter("rejected").inc()
            return
        if rec is not None and rec.failed:
            # An error response (retries exhausted / deadline blown):
            # answered, but not goodput — excluded from latency.
            self.failed += 1
            if self.check.enabled:
                self.check.root_done("failed")
            if self.metrics is not None:
                self.metrics.counter("failed").inc()
            return
        if self.check.enabled:
            self.check.root_done("completed")
        latency = self.engine.now - arrival_ns
        self.recorder.record(self.engine.now, latency)
        if self.server_recorders is not None:
            self.server_recorders[server.server_id].record(
                self.engine.now, latency)
        if self.metrics is not None:
            self.metrics.histogram("latency_ns").observe(latency)

    def run(self, max_events: Optional[int] = None) -> RunResult:
        self._schedule_arrivals()
        if self.injector is not None:
            self.injector.install()
        if self.autoscaler is not None:
            self.autoscaler.install()
        if self.hybrid is not None:
            self.hybrid.install()
        if self.metrics is not None:
            self.metrics.histogram("latency_ns")
            self.metrics.start_sampling(self.engine, self.metrics_interval_ns)
        self.engine.run(max_events=max_events)
        if self.metrics is not None:
            # The gauges close over the servers; a closed registry lets
            # the result outlive the simulator without pinning it.
            self.metrics.close()
        if self.check.enabled:
            # Balance the conservation ledgers; drain-only checks are
            # skipped when a max_events budget truncated the run.
            drained = self.engine.peek_time() is None
            self.check.finalize(self, drained=drained)
            if getattr(self.check, "strict", False):
                self.check.raise_if_violations()
        warmup_ns = self.warmup_fraction * self.duration_s * 1e9
        summary = self.recorder.summary(after_ns=warmup_ns)
        fault_stats = self._fault_stats() \
            if (self.injector is not None or self.resilience is not None) \
            else None
        return RunResult(
            system=self.config.name, app=self.app.name,
            rps_per_server=self.rps_per_server, n_servers=self.n_servers,
            duration_s=self.duration_s, summary=summary,
            completed=len(self.recorder), rejected=self.rejected,
            offered=self.offered, tracer=self.tracer, metrics=self.metrics,
            warmup_ns=warmup_ns, failed=self.failed,
            fault_stats=fault_stats, sched_stats=self._sched_stats(),
            dc_stats=self._dc_stats(warmup_ns),
            hybrid_stats=self.hybrid.stats()
            if self.hybrid is not None else None)

    def _dc_stats(self, warmup_ns: float) -> Optional[dict]:
        """Datacenter-tier counters; None when ``dc`` is off (keeps the
        non-dc ``as_dict`` payload byte-identical to the pre-dc layer)."""
        if self.lb is None:
            return None
        dc = self.dc
        stats = {
            "lb": dc.lb,
            "lb_latency_ns": dc.lb_latency_ns,
            "replication": dc.replication,
            "autoscale": dc.autoscale,
            "routed": list(self.lb.routed),
            "active_at_end": self.lb.active_ids,
            "proxied": sum(s.rpc_proxied for s in self.servers),
            "per_server": [],
        }
        for sid, rec in enumerate(self.server_recorders):
            entry = {
                "server": sid,
                "routed": self.lb.routed[sid],
                "answered": self.server_answered[sid],
                "completed": len(rec),
            }
            if rec.latencies(after_ns=warmup_ns).size:
                s = rec.summary(after_ns=warmup_ns)
                entry.update(p50_ns=s.p50, p99_ns=s.p99, p999_ns=s.p999)
            stats["per_server"].append(entry)
        pooled = pooled_summary(self.server_recorders, after_ns=warmup_ns)
        stats["pooled"] = pooled.as_dict()
        if isinstance(self.lb.policy, AffinityLB):
            stats["spills"] = self.lb.policy.spills
        if self.autoscaler is not None:
            stats["scale_ups"] = self.autoscaler.scale_ups
            stats["scale_downs"] = self.autoscaler.scale_downs
            stats["scale_events"] = [
                {"time_ns": t, "action": action, "server": sid,
                 "mean_util": util}
                for t, action, sid, util in self.autoscaler.events]
        return stats

    def _sched_stats(self) -> Optional[dict]:
        """Policy-layer counters; None for default-policy runs (keeps
        their ``as_dict`` payload — including the legacy ``work_steal``
        configs of Figure 3 — byte-identical to the pre-policy layer)."""
        cfg = self.config
        if not (cfg.core_bypass
                or cfg.rq_policy != "fcfs"
                or cfg.dispatch not in ("rr", "random")
                or (cfg.work_steal and cfg.steal_policy != "first")):
            return None
        servers = self.servers
        stats = {
            "dispatch": cfg.dispatch,
            "rq_policy": cfg.rq_policy,
            "steal_policy": cfg.steal_policy if cfg.work_steal else "off",
            "core_bypass": cfg.core_bypass,
            "steals": sum(v.steals for s in servers for v in s.villages),
            "bypasses": sum(v.bypasses for s in servers for v in s.villages),
        }
        if cfg.dispatch == "affinity":
            stats["spills"] = sum(s.top_nic._dispatch_policy.spills
                                  for s in servers)
        return stats

    def _fault_stats(self) -> dict:
        """Aggregate resilience/fault counters across the cluster (also
        mirrored into the metrics registry when one is attached)."""
        servers = self.servers
        stats = {
            "injected": self.injector.stats() if self.injector else None,
            "rpc_timeouts": sum(s.rpc_timeouts for s in servers),
            "rpc_retries": sum(s.rpc_retries for s in servers),
            "rpc_hedges": sum(s.rpc_hedges for s in servers),
            "rpc_failed": sum(s.rpc_failed for s in servers),
            "wasted_responses": sum(s.wasted_responses for s in servers),
            "blackholed": sum(v.blackholed for s in servers
                              for v in s.villages),
            "icn_dropped": sum(s.network.messages_dropped for s in servers),
            "nic_dropped": sum(n.dropped for s in servers
                               for n in s.lnics + s.rnics),
            "health_marks": sum(s.top_nic.health_marks for s in servers),
        }
        if self.metrics is not None:
            for key in ("rpc_timeouts", "rpc_retries", "rpc_hedges",
                        "rpc_failed", "blackholed", "icn_dropped",
                        "nic_dropped"):
                self.metrics.counter(key).inc(stats[key])
        return stats


def simulate(config: SystemConfig, app: AppSpec, rps_per_server: float,
             n_servers: int = 4, duration_s: float = 0.02, seed: int = 0,
             warmup_fraction: float = 0.25,
             fabric_config: Optional[FabricConfig] = None,
             arrivals="poisson",
             tracer: Optional[NullTracer] = None,
             metrics_interval_ns: Optional[float] = None,
             faults: Optional[FaultSchedule] = None,
             resilience: Optional[ResilienceConfig] = None,
             check: Optional[NullCheckContext] = None,
             dc: Optional[DcConfig] = None,
             hybrid: Optional[HybridConfig] = None) -> RunResult:
    """One-call wrapper: build the cluster, run it, return the result.

    Pass a :class:`repro.telemetry.Tracer` to capture spans and/or a
    ``metrics_interval_ns`` to sample system-state gauges periodically;
    both default to off (zero-overhead NullTracer path).  A non-empty
    ``faults`` schedule installs the injector and (unless an explicit
    ``resilience`` policy is given) arms default timeout/retry handling.
    A :class:`repro.check.CheckContext` as ``check`` runs the run under
    the invariant sanitizer (raising on violations when it is strict).
    A :class:`repro.dc.DcConfig` as ``dc`` switches on the datacenter
    tier — one shared arrival process routed through a front-end LB,
    service placement/replication, and (optionally) autoscaling.
    A :class:`repro.hybrid.HybridConfig` as ``hybrid`` arms the analytic
    steady-state fast path (guard-and-abort; see :mod:`repro.hybrid`).
    """
    sim = ClusterSimulation(config, app, rps_per_server, n_servers,
                            duration_s, seed, warmup_fraction, fabric_config,
                            arrivals=arrivals, tracer=tracer,
                            metrics_interval_ns=metrics_interval_ns,
                            faults=faults, resilience=resilience,
                            check=check, dc=dc, hybrid=hybrid)
    return sim.run()
