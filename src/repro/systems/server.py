"""One server: a processor (villages + ICN + NICs) running service instances.

The Server implements the executor protocol consumed by
:class:`repro.core.village.Village` and owns the full request lifecycle:

* external ingress: fabric -> top-level NIC (ServiceMap round-robin) ->
  NIC-to-leaf link -> on-package ICN -> village RQ (buffer/reject on
  overflow);
* compute segments timed by the analytic core+cache model, including
  coherence-directory latency and resume-warmth penalties;
* blocking calls: storage accesses leave through the village R-NIC and
  the inter-server fabric; service calls route village-to-village over
  the ICN (or cross-server through the fabric);
* responses retrace the path and wake the blocked parent entry.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.context_switch import SchedulerDomain
from repro.core.request import RequestRecord
from repro.core.village import Village
from repro.cpu.coherence import CoherenceConfig, CoherenceModel
from repro.cpu.core_model import CoreModel
from repro.icn import FatTree, HierarchicalLeafSpine, Mesh2D, Network, \
    NetworkConfig
from repro.mem.mempool import MemoryPool
from repro.net.fabric import InterServerFabric, StorageBackend
from repro.net.nic import LNic, NicConfig, RNic, TopLevelNic
from repro.sim.engine import Engine
from repro.sim.resource import Resource
from repro.sim.rng import ScalarDraws
from repro.systems.configs import SystemConfig
from repro.workloads.spec import STORAGE, AppSpec, ServiceSpec

REQUEST_BYTES = 512
RESPONSE_BYTES = 512
STORAGE_BYTES = 256
RETRY_NS = 1000.0


class Server:
    """A single machine with one processor of the configured architecture."""

    def __init__(self, engine: Engine, server_id: int, config: SystemConfig,
                 apps: Dict[str, AppSpec], rng: np.random.Generator,
                 fabric: InterServerFabric, storage: StorageBackend,
                 hosted: Optional[frozenset] = None):
        self.engine = engine
        self.server_id = server_id
        self.config = config
        self.apps = apps
        self.rng = rng
        #: Per-message scalar draws on ``rng``'s own state (state-fetch
        #: sources, callee picks, scheduler jitter).
        self.draws = ScalarDraws(rng)
        self.fabric = fabric
        self.storage = storage
        self.peers: List["Server"] = [self]
        #: Services this server hosts (None = all; set by the dc tier's
        #: PlacementPlan when replication < n_servers).
        self.hosted = hosted
        #: The cluster-wide :class:`repro.dc.PlacementPlan` (None when
        #: the dc tier is off or every service runs everywhere).
        self.placement_plan = None
        #: Leaf RPCs forwarded to a remote replica because the target
        #: service has no local instance under the placement plan.
        self.rpc_proxied = 0
        self.core_model = CoreModel(config.core)
        # Section 8: heterogeneous villages — a spread subset of villages
        # uses the beefier core type.
        self._big_villages = set()
        if config.big_village_fraction > 0:
            n_big = int(round(config.n_queues * config.big_village_fraction))
            stride = max(1, config.n_queues // max(1, n_big))
            self._big_villages = set(
                list(range(0, config.n_queues, stride))[:n_big])
            self._big_core_model = CoreModel(config.big_core)
        self.coherence = CoherenceModel(CoherenceConfig(
            domain_cores=config.coherence_domain_cores,
            total_cores=config.n_cores))
        # Hot-path constants: every RPC send resolves village node names,
        # cluster ids and coherence-inflated sizes; all are pure functions
        # of the frozen config, so compute them once here.
        self._village_nodes = [f"s{server_id}.vil{v}"
                               for v in range(config.n_queues)]
        per = max(1, config.n_queues // config.n_clusters)
        self._village_clusters = [min(v // per, config.n_clusters - 1)
                                  for v in range(config.n_queues)]
        coh_factor = self.coherence.coherence_message_factor()
        self._coh_request_bytes = int(REQUEST_BYTES * coh_factor)
        self._coh_response_bytes = int(RESPONSE_BYTES * coh_factor)
        self._coh_storage_bytes = int(STORAGE_BYTES * coh_factor)
        self._mem_cycles = (config.memory_latency_cycles
                            + self.coherence.directory_roundtrip_cycles())
        self._preempt_check_ns = \
            config.preempt_op_cycles / config.core.freq_ghz
        self._state_msg_bytes = max(
            64, config.state_bytes_per_invocation // 4)
        self._mlp = self.core_model.memory_level_parallelism()
        #: ``(cpi, freq_ghz)`` of a segment per ``(app, service, big
        #: village)``, filled on first use by :meth:`segment_time_ns`.
        self._segment_terms: Dict[tuple, tuple] = {}
        self._build_topology()
        self._build_villages()
        self._place_services()
        self.retries = 0
        self.rejected = 0
        self._scaling = set()      # services with an instance boot in flight
        self.instances_booted = 0
        #: Resilience policy (:class:`repro.faults.ResilienceConfig`),
        #: armed by the cluster harness for fault experiments.  None keeps
        #: every call on the original unguarded path — the fault-free
        #: experiments never see a timeout event or an extra branch.
        self.resilience = None
        #: Hybrid fast-path controller (:mod:`repro.hybrid`), armed by
        #: the cluster harness when ``--hybrid`` is on.  None keeps the
        #: RPC path branch-free apart from one attribute load.
        self.hybrid = None
        self.rpc_timeouts = 0
        self.rpc_retries = 0
        self.rpc_hedges = 0
        self.rpc_failed = 0
        self.wasted_responses = 0

    # -------------------------------------------------------------- build

    def _build_topology(self) -> None:
        cfg = self.config
        if cfg.topology == "leafspine":
            pods = 4 if cfg.n_clusters % 4 == 0 and cfg.n_clusters >= 4 else 1
            topo = HierarchicalLeafSpine(
                n_pods=pods, leaves_per_pod=cfg.n_clusters // pods)
            leaf_names = [topo.leaf(c) for c in range(cfg.n_clusters)]
        elif cfg.topology == "fattree":
            n = 1 << max(1, (cfg.n_clusters - 1).bit_length())
            topo = FatTree(n_leaves=n)
            leaf_names = [topo.leaf(c) for c in range(cfg.n_clusters)]
        else:  # mesh
            cols = int(math.ceil(math.sqrt(cfg.n_clusters)))
            rows = int(math.ceil(cfg.n_clusters / cols))
            topo = Mesh2D(cols, rows)
            leaf_names = [topo.tile(c % cols, c // cols)
                          for c in range(cfg.n_clusters)]
        # Cluster -> attachment-node names precomputed; list indexing is
        # the hot cluster-to-leaf map on every message send.
        self._leaves = leaf_names
        self.topology = topo
        net_cfg = NetworkConfig(hop_cycles=5.0, freq_ghz=cfg.core.freq_ghz,
                                link_bytes_per_ns=cfg.link_bytes_per_ns,
                                contention=cfg.icn_contention)
        self.network = Network(self.engine, topo, net_cfg, rng=self.rng)
        # Top-level NIC connects to every leaf NH (Figure 12): one
        # injection/ejection link per cluster.
        self._nic_links = [
            Resource(self.engine, capacity=1, name=f"s{self.server_id}.nic-l{c}")
            for c in range(cfg.n_clusters)]
        self._nic_hop_ns = net_cfg.hop_latency_ns

    def _build_villages(self) -> None:
        cfg = self.config
        nic_cfg = NicConfig(rpc_processing_ns=cfg.rpc_processing_ns)
        self.top_nic = TopLevelNic(self.engine, nic_cfg,
                                   name=f"s{self.server_id}.tnic",
                                   dispatch=cfg.dispatch, rng=self.rng)
        self.villages: List[Village] = []
        self.lnics: List[LNic] = []
        self.rnics: List[RNic] = []
        rq_capacity = cfg.rq_capacity if cfg.hw_queues \
            else max(cfg.rq_capacity, 100_000)  # software queues live in DRAM
        # A centralized software scheduler is ONE instance per server
        # (Section 4.4: Shinjuku on a dedicated core for the whole chip).
        shared_dom = SchedulerDomain(
            self.engine, cfg.cs, cfg.core.freq_ghz,
            name=f"s{self.server_id}.sched", rng=self.draws) \
            if cfg.cs.centralized and not cfg.per_queue_scheduler else None
        from repro.sched.policies import get_policy
        from repro.sched.stealing import get_steal_policy

        rq_policy = get_policy(cfg.rq_policy)
        steal_policy = (get_steal_policy(cfg.steal)
                        if cfg.steal != "off" else None)
        for v in range(cfg.n_queues):
            dom = shared_dom or SchedulerDomain(
                self.engine, cfg.cs, cfg.core.freq_ghz,
                name=f"s{self.server_id}.v{v}", rng=self.draws)
            village = Village(self.engine, v, cfg.cores_per_queue, dom, self,
                              rq_capacity=rq_capacity,
                              steal_overhead_ns=200.0,
                              rq_policy=rq_policy,
                              steal_policy=steal_policy,
                              core_bypass=cfg.core_bypass,
                              name=f"s{self.server_id}.v{v}")
            self.villages.append(village)
            self.lnics.append(LNic(self.engine, nic_cfg,
                                   name=f"s{self.server_id}.v{v}.lnic"))
            self.rnics.append(RNic(self.engine, nic_cfg,
                                   name=f"s{self.server_id}.v{v}.rnic"))
            # A queue domain spanning k L2-villages has k I/O port pairs.
            ports = max(1, cfg.cores_per_queue // cfg.cores_per_village)
            self.topology.attach(self._village_nodes[v],
                                 self._leaves[self._village_clusters[v]],
                                 capacity=ports)
        #: Every core, village by village: :meth:`busy_ns` sums them in
        #: this order.
        self._cores = [c for v in self.villages for c in v.cores]
        if cfg.steal != "off":
            peers_of = self.rng.permutation(cfg.n_queues)
            for v, village in enumerate(self.villages):
                others = [self.villages[int(p)] for p in peers_of
                          if int(p) != v][:8]
                village.steal_from = others
                for other in others:
                    other.stealers.append(village)
        # Occupancy hook for load-aware dispatch policies (least/affinity).
        self.top_nic.occupancy_of = \
            lambda v: self.villages[v].rq.occupancy
        self.pools = [MemoryPool(self.engine, name=f"s{self.server_id}.pool{c}")
                      for c in range(cfg.n_clusters)]

    def _place_heterogeneous(self, names, services) -> None:
        """Section 8: call-free (leaf) services on big villages, call-heavy
        orchestration services on the many small ones."""
        def is_leaf(name):
            return all(c.is_storage for c in services[name].calls)

        leaf_names = [n for n in names if is_leaf(n)] or list(names)
        heavy_names = [n for n in names if not is_leaf(n)] or list(names)
        big = sorted(self._big_villages)
        small = [v for v in range(len(self.villages))
                 if v not in self._big_villages]
        for i, v in enumerate(big):
            self.placement[leaf_names[i % len(leaf_names)]].append(v)
        for i, v in enumerate(small):
            self.placement[heavy_names[i % len(heavy_names)]].append(v)

    def village_cluster(self, v: int) -> int:
        return self._village_clusters[v]

    def _place_services(self) -> None:
        """Spread service instances over villages; services that must
        share a village share all of its cores (Section 4.1)."""
        services: Dict[str, ServiceSpec] = {}
        for app in self.apps.values():
            services.update(app.services)
        names = sorted(services)
        if self.hosted is not None:
            # Placement plan in force: only instantiate the services this
            # server hosts (leaf RPCs to the rest are proxied cross-server).
            names = [n for n in names if n in self.hosted]
        n_queues = self.config.n_queues
        self.placement: Dict[str, List[int]] = {name: [] for name in names}
        if n_queues >= len(names):
            if self._big_villages:
                self._place_heterogeneous(names, services)
            else:
                # Dedicate villages to services, spread round-robin.
                for i, village in enumerate(self.villages):
                    name = names[i % len(names)]
                    self.placement[name].append(i)
        else:
            # Few queue domains (software baselines): services co-locate
            # and all cores of a domain serve any service.
            for i, name in enumerate(names):
                self.placement[name].append(i % n_queues)
        for name, villages in self.placement.items():
            for v in villages:
                self.top_nic.register_instance(name, v)
            for c in range(self.config.n_clusters):
                self.pools[c].store_snapshot(name, 16 * 1024 * 1024)

    # ---------------------------------------------------- executor protocol

    def village_core_model(self, village_id: int) -> CoreModel:
        if village_id in self._big_villages:
            return self._big_core_model
        return self.core_model

    def segment_time_ns(self, rec: RequestRecord, core) -> float:
        cfg = self.config
        v = rec.village
        # The village core model's ``segment_time_ns``, with the CPI and
        # frequency looked up once per (app, service, big village).
        instructions = rec.segments[rec.seg_index]
        if instructions < 0:
            raise ValueError("negative instruction count")
        key = (rec.app_name, rec.service, v in self._big_villages)
        terms = self._segment_terms.get(key)
        if terms is None:
            model = self.village_core_model(v)
            spec = self.apps[rec.app_name].services[rec.service]
            terms = self._segment_terms[key] = (
                model.effective_cpi(spec.profile, cfg.l2_latency_cycles,
                                    self._mem_cycles),
                model.config.freq_ghz)
        cpi, freq = terms
        base = instructions * cpi / freq
        # Software RPC stack: every segment starts by processing the
        # message that woke it (request or response) on the core.
        base += cfg.sw_rpc_core_ns
        # Preemptive software scheduling: the dispatcher interrupts the
        # segment every quantum; the check costs core cycles and loads
        # the (possibly centralized) scheduler core.
        if cfg.preempt_quantum_ns > 0:
            quanta = math.ceil(base / cfg.preempt_quantum_ns)
            per_check_ns = self._preempt_check_ns
            base += quanta * per_check_ns
            village = self.villages[v]
            village.scheduler.background_load(quanta * per_check_ns)
        if not rec.has_run:
            if rec.seg_index == 0:
                self._fetch_state(rec)
            return base
        last = rec.last_core
        if last is None or (last[0] == v and last[1] == core.core_id):
            return base
        return base + self._resume_penalty_ns(rec, core)

    def _fetch_state(self, rec: RequestRecord) -> None:
        """Pull the invocation's read-mostly state over the ICN.

        With villages + memory pools the state (snapshot, instance data)
        sits in the local cluster's pool chiplet; with global coherence
        it is interleaved across the die and the fetch crosses the
        network fabric — the dominant contention source of Figure 7.
        The fetch overlaps execution (its latency is folded into the
        AMAT term); what matters here is the link occupancy it causes.
        """
        cfg = self.config
        v = rec.village
        dst = self._village_nodes[v]
        n_msgs = 4
        msg_bytes = self._state_msg_bytes
        local_cluster = self._village_clusters[v]
        rec._fetch_remaining = n_msgs
        rec._fetch_cont = None

        def arrived() -> None:
            rec._fetch_remaining -= 1
            if rec._fetch_remaining == 0 and rec._fetch_cont is not None:
                village, core = rec._fetch_cont
                rec._fetch_cont = None
                self._segment_done_impl(rec, village, core)

        def sources():
            # Lazily drawn so the locality draws interleave with each
            # message's ECMP picks on this server's RNG stream exactly
            # as the pre-batch send loop did.
            draws = self.draws
            random, below = draws.random, draws.below
            frac = cfg.local_state_fraction
            n_clusters = cfg.n_clusters
            leaves = self._leaves
            for __ in range(n_msgs):
                if random() < frac:
                    yield leaves[local_cluster]
                else:
                    yield leaves[below(n_clusters)]

        self.network.send_fanout(sources(), dst, msg_bytes, arrived, rec=rec)

    def _resume_penalty_ns(self, rec: RequestRecord, core) -> float:
        """Cache-warmth cost of resuming on a different core (Section 4.1)."""
        if not rec.has_run or rec.last_core is None:
            return 0.0
        cfg = self.config
        last_village, last_core = rec.last_core
        here = (rec.village, core.core_id)
        if (last_village, last_core) == here:
            return 0.0
        lines = cfg.resume_reload_lines
        freq = cfg.core.freq_ghz
        per_queue = cfg.cores_per_queue
        per_village = cfg.cores_per_village
        same_l2 = (last_village * per_queue + last_core) // per_village \
            == (rec.village * per_queue + core.core_id) // per_village
        if same_l2:
            per_line = cfg.l2_latency_cycles
        elif self.coherence.is_global:
            per_line = cfg.l2_latency_cycles + \
                self.coherence.directory_roundtrip_cycles()
        else:
            per_line = cfg.memory_latency_cycles
        return lines * per_line / freq / self._mlp

    def segment_done(self, rec: RequestRecord, village: Village, core) -> None:
        # Demand state fetch still in flight: the core stalls on it (the
        # working set has not fully arrived).  Local-pool fetches finish
        # under the compute; remote interleaved fetches may not.
        if rec._fetch_remaining > 0:
            rec._fetch_cont = (village, core)
            return
        self._segment_done_impl(rec, village, core)

    def _segment_done_impl(self, rec: RequestRecord, village: Village,
                           core) -> None:
        i = rec.seg_index
        if i == len(rec.segments) - 1:          # the last segment
            village.finish(rec, core)
            return
        call = self.apps[rec.app_name].services[rec.service].calls[i]
        village.block_for_call(rec, core)
        if call.target == STORAGE:
            self._storage_access(rec, village)
        else:
            self._service_call(rec, village, call.target)

    # ------------------------------------------------------ blocking calls

    def _storage_access(self, rec: RequestRecord, village: Village) -> None:
        """village -> leaf -> R-NIC -> fabric -> storage, and back."""
        v = village.village_id
        node = self._village_nodes[v]
        leaf = self._leaves[self._village_clusters[v]]
        tracer = self.engine.tracer
        issued_ns = self.engine.now

        def resume(latency_ns: float = 0.0) -> None:
            if tracer.enabled:
                tracer.span("storage_rpc", "storage", issued_ns,
                            self.engine.now, rec=rec, track="storage")
            village.make_ready(rec)

        def back_on_package() -> None:
            self.network.send(leaf, node, self._coh_storage_bytes,
                              resume, rec=rec)

        def storage_done(latency_ns: float) -> None:
            self.fabric.send(self.server_id, self.server_id, STORAGE_BYTES,
                             back_on_package, rec=rec)

        def at_rnic() -> None:
            self.rnics[v].process(
                STORAGE_BYTES,
                lambda: self.fabric.send(self.server_id, self.server_id,
                                         STORAGE_BYTES,
                                         lambda: self.storage.access(
                                             storage_done), rec=rec),
                rec=rec)

        self.network.send(node, leaf, self._coh_storage_bytes,
                          at_rnic, rec=rec)

    def _pick_callee(self, target: str) -> "Server":
        draws = self.draws
        plan = self.placement_plan
        if plan is not None:
            hosts = plan.servers_for(target)
            if self.server_id not in hosts:
                # No local replica: proxy the RPC to a hosting server
                # over the inter-server fabric.
                self.rpc_proxied += 1
                if len(hosts) == 1:
                    return self.peers[hosts[0]]
                return self.peers[hosts[draws.below(len(hosts))]]
            if len(hosts) == 1 or draws.random() < self.config.locality:
                return self
            others = [sid for sid in hosts if sid != self.server_id]
            return self.peers[others[draws.below(len(others))]]
        if len(self.peers) == 1 or draws.random() < self.config.locality:
            return self
        others = [p for p in self.peers if p is not self]
        return others[draws.below(len(others))]

    def _send_call(self, village: Village, child: RequestRecord,
                   callee: "Server", target: str,
                   exclude: Optional[int] = None) -> Optional[int]:
        """Push one request toward its callee; returns the destination
        village for local calls (None for cross-server ones).  Raises
        ``KeyError`` when every local instance is marked unhealthy."""
        v = village.village_id
        src_node = self._village_nodes[v]
        if callee is self:
            dst_village = self.top_nic.pick_village(target, exclude=exclude)
            self.lnics[v].process(
                REQUEST_BYTES,
                lambda: self.network.send(
                    src_node, self._village_nodes[dst_village],
                    self._coh_request_bytes,
                    lambda: self._submit_with_retry(child, dst_village),
                    rec=child),
                rec=child)
            return dst_village
        leaf = self._leaves[self._village_clusters[v]]
        self.network.send(
            src_node, leaf, self._coh_request_bytes,
            lambda: self.rnics[v].process(
                REQUEST_BYTES,
                lambda: self.fabric.send(
                    self.server_id, callee.server_id, REQUEST_BYTES,
                    lambda: callee.ingress_internal(child), rec=child),
                rec=child),
            rec=child)
        return None

    def _service_call(self, rec: RequestRecord, village: Village,
                      target: str) -> None:
        """Synchronous downstream RPC; parent resumes on the response."""
        if self.resilience is not None:
            _ResilientCall(self, rec, village, target).launch()
            return
        hybrid = self.hybrid
        if hybrid is None:
            self._issue_call(rec, village, target)
            return
        if hybrid.should_elide_call(target):
            # Committed callee: answer the RPC analytically — no child
            # request, no NIC/ICN/RQ events, just a sampled latency and
            # the normal parent wakeup.
            hybrid.elide_call(rec, village, target)
            return
        # Detailed call under an armed controller: record the
        # parent-visible latency (issue -> resume) to calibrate the
        # callee's analytic model, then wake the parent as usual, so the
        # event sequence does not change.
        issued_ns = self.engine.now

        def observed(child: RequestRecord) -> None:
            hybrid.observe_call(target, self.engine.now - issued_ns)
            village.make_ready(rec)

        self._issue_call(rec, village, target, observed)

    def _issue_call(self, parent: RequestRecord, village: Village,
                    target: str, on_resume: Optional[Callable] = None,
                    exclude: Optional[int] = None) -> Optional[int]:
        """Pick the callee, build the child RPC, open its span and send
        it; returns (and raises) as :meth:`_send_call`.  The response
        wakes ``parent``, or calls ``on_resume(child)`` when given."""
        callee = self._pick_callee(target)

        def respond(child: RequestRecord) -> None:
            self._deliver_response(callee, child, village, parent,
                                   on_resume)

        child = self._make_request(parent.app_name, target, respond,
                                   depth=parent.depth + 1)
        tracer = self.engine.tracer
        if tracer.enabled:
            # Nested RPC: its own request span, parented into the caller's
            # trace so the span tree follows the RPC tree.
            tracer.begin_request(child, self.engine.now, parent=parent)
        return self._send_call(village, child, callee, target, exclude)

    def _deliver_response(self, callee: "Server", child: RequestRecord,
                          parent_village: Village,
                          parent: RequestRecord,
                          on_resume: Optional[Callable] = None) -> None:
        """Send a child's response back to the waiting parent.

        On arrival the parent is woken through
        :meth:`Village.make_ready`, unless ``on_resume(child)`` (hybrid
        calibration, resilient calls) replaces that wakeup.
        """

        tracer = self.engine.tracer

        def resume() -> None:
            if tracer.enabled:
                # The nested call's span closes when its response reaches
                # the waiting parent — the full parent-visible latency.
                tracer.end_request(child, self.engine.now)
            if on_resume is not None:
                on_resume(child)
            else:
                parent_village.make_ready(parent)

        child_node = callee._village_nodes[child.village]
        parent_v = parent_village.village_id
        if callee is self:
            self.network.send(child_node, self._village_nodes[parent_v],
                              self._coh_response_bytes, resume,
                              rec=child)
        else:
            child_leaf = callee._leaves[
                callee._village_clusters[child.village]]
            callee.network.send(
                child_node, child_leaf, callee._coh_response_bytes,
                lambda: callee.fabric.send(
                    callee.server_id, self.server_id, RESPONSE_BYTES,
                    lambda: self.network.send(
                        self._leaves[self._village_clusters[parent_v]],
                        self._village_nodes[parent_v],
                        self._coh_response_bytes, resume, rec=child),
                    rec=child),
                rec=child)

    # ------------------------------------------------------------- ingress

    def _make_request(self, app_name: str, service: str,
                      on_complete: Callable[[RequestRecord], None],
                      depth: int = 0) -> RequestRecord:
        spec = self.apps[app_name].services[service]
        rec = RequestRecord(
            app_name=app_name, service=service,
            segments=spec.sample_segments(self.rng),
            on_complete=on_complete, arrival_ns=self.engine.now, depth=depth,
            server=self.server_id)
        check = self.engine.check
        if check.enabled:
            check.request_created(rec)
        return rec

    def _submit_with_retry(self, rec: RequestRecord, village_id: int,
                           attempt: int = 0) -> None:
        """Internal requests back-pressure (NIC buffering) instead of
        being dropped.  After a few attempts the request is admitted as a
        soft (NIC-buffered) entry: a child RPC can never be dropped, and
        waiting indefinitely for a slot would deadlock call trees whose
        blocked parents hold all the slots."""
        if self.villages[village_id].submit(rec):
            return
        self._maybe_scale(rec.service)
        self.retries += 1
        if attempt >= 4:
            self.villages[village_id].submit_soft(rec)
            return
        self.engine.schedule(RETRY_NS * (attempt + 1),
                             self._submit_with_retry, rec, village_id,
                             attempt + 1)

    def ingress_internal(self, rec: RequestRecord) -> None:
        """A request arriving from a peer server for a local instance."""
        self.top_nic.process(REQUEST_BYTES, lambda: self._dispatch_external(
            rec, internal=True), rec=rec)

    def client_request(self, app_name: str,
                       on_done: Callable[[RequestRecord], None]) -> None:
        """External request from a client outside the cluster."""
        if self.resilience is not None:
            _ResilientRoot(self, app_name, on_done).launch()
            return
        self._client_request_once(app_name, on_done)

    def _client_request_once(self, app_name: str,
                             on_done: Callable[[RequestRecord], None]) -> None:
        """One attempt at an external request (no deadline machinery)."""
        app = self.apps[app_name]
        tracer = self.engine.tracer

        def finish(rec: RequestRecord) -> None:
            if tracer.enabled:
                tracer.end_request(rec, self.engine.now)
            on_done(rec)

        def respond(rec: RequestRecord) -> None:
            # Egress: village -> leaf -> NIC link -> top NIC -> fabric.
            v = rec.village
            cluster = self._village_clusters[v]
            self.network.send(
                self._village_nodes[v], self._leaves[cluster],
                self._coh_response_bytes,
                lambda: self._nic_links[cluster].acquire(
                    self._nic_hop_ns,
                    lambda: self.top_nic.process(
                        RESPONSE_BYTES,
                        lambda: self.fabric.send(self.server_id,
                                                 self.server_id,
                                                 RESPONSE_BYTES,
                                                 lambda: finish(rec),
                                                 rec=rec),
                        rec=rec)),
                rec=rec)

        rec = self._make_request(app_name, app.root, respond)
        if tracer.enabled:
            tracer.begin_request(rec, self.engine.now)
        self.fabric.send(
            self.server_id, self.server_id, REQUEST_BYTES,
            lambda: self.top_nic.process(
                REQUEST_BYTES,
                lambda: self._dispatch_external(rec, internal=False,
                                                on_reject=finish),
                rec=rec),
            rec=rec)

    def _reject(self, rec: RequestRecord,
                on_reject: Optional[Callable]) -> None:
        """Answer an external request with an error response."""
        self.rejected += 1
        rec.rejected = True
        rec.finish_ns = self.engine.now
        if self.engine.check.enabled:
            self.engine.check.ext_rejected(rec)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.end_request(rec, self.engine.now, rejected=True)
        if on_reject is not None:
            on_reject(rec)

    def _dispatch_external(self, rec: RequestRecord, internal: bool,
                           on_reject: Optional[Callable] = None) -> None:
        try:
            village_id = self.top_nic.pick_village(rec.service)
        except KeyError:
            if not self.top_nic._down:
                raise              # unknown service: a configuration bug
            # Every local instance is marked down.  External requests get
            # an error response; internal ones blackhole and are rescued
            # by their caller's timeout/retry.
            if not internal:
                self._reject(rec, on_reject)
            return
        cluster = self._village_clusters[village_id]

        def deliver() -> None:
            if self.villages[village_id].submit(rec):
                return
            self._maybe_scale(rec.service)
            if internal:
                self._submit_with_retry(rec, village_id, attempt=1)
            elif self.top_nic.try_buffer(rec):
                self.engine.schedule(RETRY_NS, self._retry_buffered,
                                     rec, village_id, on_reject)
            else:
                self._reject(rec, on_reject)

        self._nic_links[cluster].acquire(
            self._nic_hop_ns,
            lambda: self.network.send(
                self._leaves[cluster], self._village_nodes[village_id],
                self._coh_request_bytes, deliver, rec=rec))

    def _maybe_scale(self, service: str) -> None:
        """Section 4.1: when a village fills to capacity, boot another
        instance of the service in a different village from its snapshot
        in that cluster's memory pool."""
        if not self.config.auto_scale or service in self._scaling:
            return
        hosting = set(self.placement[service])
        candidates = sorted(
            (v for v in range(len(self.villages)) if v not in hosting),
            key=lambda v: self.villages[v].rq.occupancy)
        if not candidates:
            return
        target = candidates[0]
        self._scaling.add(service)
        pool = self.pools[self.village_cluster(target)]

        def booted(boot_ns: float) -> None:
            self.placement[service].append(target)
            self.top_nic.register_instance(service, target)
            self._scaling.discard(service)
            self.instances_booted += 1

        pool.boot_instance(service, booted)

    def _retry_buffered(self, rec: RequestRecord, village_id: int,
                        on_reject) -> None:
        buffered = self.top_nic.drain_buffered()
        if buffered is None:
            return
        if not self.villages[village_id].submit(buffered):
            # Keep back-pressuring; the RQ will drain.
            self._submit_with_retry(buffered, village_id, attempt=1)

    # --------------------------------------------------------------- stats

    def busy_ns(self) -> float:
        """Busy core time so far, summed over every core."""
        return sum(c.busy_ns for c in self._cores)

    def utilization(self) -> float:
        elapsed = self.engine.now * self.config.n_cores
        return self.busy_ns() / elapsed if elapsed > 0 else 0.0


class _ResilientCall:
    """One downstream RPC under a resilience policy.

    Wraps a blocking service call with a per-attempt timeout, capped
    exponential-backoff retries and (optionally) a hedged duplicate to a
    different instance.  The first response to reach the parent wins;
    late responses are counted as wasted work, and an exhausted retry
    budget resumes the parent with the request marked failed (an error
    response, propagated up the call tree).
    """

    __slots__ = ("server", "parent", "parent_village", "target", "policy",
                 "attempt", "done", "events", "primary_village", "hedged")

    def __init__(self, server: Server, parent: RequestRecord,
                 parent_village: Village, target: str):
        self.server = server
        self.parent = parent
        self.parent_village = parent_village
        self.target = target
        self.policy = server.resilience
        self.attempt = 0            # retries issued so far
        self.done = False
        self.events: List = []      # cancellable timeout/hedge/backoff events
        self.primary_village: Optional[int] = None
        self.hedged = False

    def launch(self) -> None:
        self._issue(exclude=None, hedge=False)
        if self.policy.hedging:
            self.events.append(self.server.engine.schedule(
                self.policy.hedge_delay_ns, self._hedge))

    # ------------------------------------------------------------ attempts

    def _issue(self, exclude: Optional[int], hedge: bool) -> None:
        server = self.server
        started = server.engine.now
        try:
            dst = server._issue_call(self.parent, self.parent_village,
                                     self.target, self._complete, exclude)
        except KeyError:
            # Every healthy instance is gone right now: skip the blackhole
            # wait (the ServiceMap already knows) and go straight to the
            # backoff/give-up decision.
            if not hedge:
                self._attempt_failed()
            return
        if hedge:
            return       # rides on the primary attempt's timeout budget
        self.primary_village = dst
        self.events.append(server.engine.schedule(
            self.policy.timeout_ns, self._timeout, started))

    def _hedge(self) -> None:
        if self.done or self.hedged:
            return
        self.hedged = True
        server = self.server
        server.rpc_hedges += 1
        tracer = server.engine.tracer
        if tracer.enabled:
            tracer.span("hedge", self.target, server.engine.now,
                        server.engine.now, rec=self.parent,
                        track="resilience")
        self._issue(exclude=self.primary_village, hedge=True)

    # ------------------------------------------------------- failure paths

    def _timeout(self, started: float) -> None:
        if self.done:
            return
        server = self.server
        server.rpc_timeouts += 1
        tracer = server.engine.tracer
        if tracer.enabled:
            tracer.span("blackhole_wait", self.target, started,
                        server.engine.now, rec=self.parent,
                        track="resilience")
        self._attempt_failed()

    def _attempt_failed(self) -> None:
        if self.done:
            return
        server = self.server
        if self.attempt >= self.policy.max_retries:
            self._finish_failed()
            return
        backoff = self.policy.backoff_ns(self.attempt)
        self.attempt += 1
        server.rpc_retries += 1
        tracer = server.engine.tracer
        if tracer.enabled:
            tracer.span("retry", f"{self.target}#retry{self.attempt}",
                        server.engine.now, server.engine.now + backoff,
                        rec=self.parent, track="resilience")
        self.events.append(server.engine.schedule(backoff, self._relaunch))

    def _relaunch(self) -> None:
        if self.done:
            return
        self._issue(exclude=self.primary_village, hedge=False)

    # -------------------------------------------------------- resolutions

    def _cancel_all(self) -> None:
        cancel = self.server.engine.cancel
        for ev in self.events:
            cancel(ev)
        self.events.clear()

    def _complete(self, child: RequestRecord) -> None:
        if self.done:
            self.server.wasted_responses += 1
            return
        # A child that came back degraded propagates up the tree.
        self._resolve(child.failed)

    def _finish_failed(self) -> None:
        self.server.rpc_failed += 1
        self._resolve(True)

    def _resolve(self, failed: bool) -> None:
        """Settle the call once: cancel pending timers, wake the parent."""
        self.done = True
        self._cancel_all()
        if failed:
            self.parent.failed = True
        self.parent_village.make_ready(self.parent)


class _ResilientRoot:
    """End-to-end deadline and retry for one external client request."""

    __slots__ = ("server", "app_name", "on_done", "attempt", "done",
                 "timeout_ev", "arrival_ns")

    def __init__(self, server: Server, app_name: str,
                 on_done: Callable[[RequestRecord], None]):
        self.server = server
        self.app_name = app_name
        self.on_done = on_done
        self.attempt = 0
        self.done = False
        self.timeout_ev = None
        self.arrival_ns = server.engine.now

    def launch(self) -> None:
        server = self.server
        self.timeout_ev = server.engine.schedule(
            server.resilience.effective_root_timeout_ns, self._timeout)
        server._client_request_once(self.app_name, self._finish)

    def _finish(self, rec: RequestRecord) -> None:
        if self.done:
            self.server.wasted_responses += 1
            return
        self.done = True
        if self.timeout_ev is not None:
            self.server.engine.cancel(self.timeout_ev)
        self.on_done(rec)

    def _timeout(self) -> None:
        if self.done:
            return
        server = self.server
        policy = server.resilience
        server.rpc_timeouts += 1
        tracer = server.engine.tracer
        if self.attempt < policy.root_max_retries:
            self.attempt += 1
            server.rpc_retries += 1
            if tracer.enabled:
                tracer.span("retry", f"{self.app_name}#root-retry",
                            server.engine.now, server.engine.now,
                            track="resilience")
            self.launch()
            return
        # Deadline blown and the retry budget is spent: synthesize an
        # error response so the client is not left hanging forever.
        self.done = True
        server.rpc_failed += 1
        rec = RequestRecord(
            app_name=self.app_name, service="<root-timeout>",
            segments=[0.0], on_complete=lambda r: None,
            arrival_ns=self.arrival_ns, server=server.server_id)
        rec.failed = True
        rec.finish_ns = server.engine.now
        self.on_done(rec)
