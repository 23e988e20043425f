"""Architecture configurations (Table 2) and ablation builders.

Three systems from Section 5:

* **uManycore** — 1024 simple cores in 128 eight-core villages (4 per
  cluster, 32 clusters), hierarchical leaf-spine ICN, hardware request
  queuing/scheduling, hardware context switching, per-village coherence.
* **ScaleOut** — same 1024 cores and cache hierarchy, but global cache
  coherence, fat-tree ICN, one software queue per 32-core cluster, and
  software (Shinjuku-class) scheduling/context switching.
* **ServerClass** — 40 (iso-power) or 128 (iso-area) IceLake-class cores,
  2D mesh, one coherence/scheduling domain, software scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.core.context_switch import (
    HARDWARE_CS,
    SHINJUKU_CS,
    ContextSwitchConfig,
)
from repro.cpu.core_model import SCALEOUT_CORE, SERVERCLASS_CORE, \
    UMANYCORE_CORE, CoreConfig


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate one server's processor."""

    name: str
    core: CoreConfig
    n_cores: int
    cores_per_village: int         # L2-sharing group
    cores_per_queue: int           # scheduling-domain size
    n_clusters: int                # ICN leaf count
    topology: str                  # "mesh" | "fattree" | "leafspine"
    cs: ContextSwitchConfig
    coherence_domain_cores: int
    rpc_processing_ns: float       # NIC RPC-layer cost (hw vs sw)
    l2_latency_cycles: float = 24.0
    memory_latency_cycles: float = 200.0
    rq_capacity: int = 64
    icn_contention: bool = True
    resume_reload_lines: int = 512
    locality: float = 0.7          # child calls staying on this server
    hw_queues: bool = False        # hardware RQ (bounded) vs software (DRAM)
    # Software-stack costs (zero when the NIC/scheduler do it in hardware):
    sw_rpc_core_ns: float = 0.0    # per-message RPC processing on the core
    preempt_quantum_ns: float = 0.0   # scheduler preemption period (0 = off)
    preempt_op_cycles: float = 0.0    # dispatcher work per preemption check
    # Per-invocation read-mostly state pulled over the ICN; with villages +
    # memory pools it is served by the local cluster, with global coherence
    # it interleaves across the die (Section 3.5 / 4.1):
    state_bytes_per_invocation: int = 1024 * 1024
    local_state_fraction: float = 0.0
    link_bytes_per_ns: float = 16.0
    # Force one scheduler instance per queue even when centralized (used
    # by the Figure 3 queue-granularity study to model per-queue locks).
    per_queue_scheduler: bool = False
    # Pluggable scheduling (repro.sched): the three decision points.
    dispatch: str = "rr"           # NIC->village: rr/random/least/affinity
    rq_policy: str = "fcfs"        # intra-village: fcfs/srpt/sjf/edf
    steal: str = "off"             # work stealing: off/first/maxload
    core_bypass: bool = False      # nanoPU-style idle-core fast path
    # Section 8 / 4.1 extensions:
    big_core: object = None        # CoreConfig for "big" villages, or None
    big_village_fraction: float = 0.0
    auto_scale: bool = False       # boot instances from snapshots on overload

    def __post_init__(self):
        if self.n_cores % self.cores_per_queue != 0:
            raise ValueError(
                f"{self.name}: {self.n_cores} cores not divisible into "
                f"{self.cores_per_queue}-core queue domains")
        if self.topology not in ("mesh", "fattree", "leafspine"):
            raise ValueError(f"{self.name}: unknown topology {self.topology}")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"{self.name}: locality must be in [0, 1]")
        if not 0.0 <= self.big_village_fraction <= 1.0:
            raise ValueError(
                f"{self.name}: big_village_fraction must be in [0, 1]")
        if self.big_village_fraction > 0 and self.big_core is None:
            raise ValueError(
                f"{self.name}: big villages need a big_core config")
        # Validate policy names against the repro.sched registries (lazy
        # imports: repro.sched pulls in nothing from systems, but keep the
        # module import graph acyclic and the error close to the typo).
        from repro.sched.dispatch import DISPATCH_FACTORIES
        from repro.sched.policies import POLICY_FACTORIES
        from repro.sched.stealing import STEAL_POLICIES
        if self.dispatch not in DISPATCH_FACTORIES:
            raise ValueError(f"{self.name}: unknown dispatch policy "
                             f"{self.dispatch!r}")
        if self.rq_policy not in POLICY_FACTORIES:
            raise ValueError(f"{self.name}: unknown RQ policy "
                             f"{self.rq_policy!r}")
        if self.steal != "off" and self.steal not in STEAL_POLICIES:
            raise ValueError(f"{self.name}: unknown steal policy "
                             f"{self.steal!r}")

    @property
    def n_queues(self) -> int:
        return self.n_cores // self.cores_per_queue

    @property
    def villages_per_cluster(self) -> int:
        return max(1, self.n_queues // self.n_clusters)


#: Software NICs still use NIC-to-core optimizations [32, 77] (Section 5),
#: so their RPC-layer cost is sub-microsecond rather than kernel-stack ms.
SW_RPC_NS = 500.0
HW_RPC_NS = 50.0


UMANYCORE = SystemConfig(
    name="uManycore",
    core=UMANYCORE_CORE,
    n_cores=1024,
    cores_per_village=8,
    cores_per_queue=8,
    n_clusters=32,
    topology="leafspine",
    cs=HARDWARE_CS,
    coherence_domain_cores=8,
    rpc_processing_ns=HW_RPC_NS,
    hw_queues=True,
    local_state_fraction=0.85,
    state_bytes_per_invocation=1024 * 1024,    # snapshots/state in the cluster pool
)

SCALEOUT = SystemConfig(
    name="ScaleOut",
    core=SCALEOUT_CORE,
    n_cores=1024,
    cores_per_village=8,
    cores_per_queue=32,           # one queue per 32-core cluster (Sec 6.2)
    n_clusters=32,
    topology="fattree",
    cs=SHINJUKU_CS,
    coherence_domain_cores=1024,  # global hardware coherence
    rpc_processing_ns=SW_RPC_NS,
    sw_rpc_core_ns=20_000.0,
    preempt_quantum_ns=15_000.0,
    preempt_op_cycles=450.0,
    state_bytes_per_invocation=1024 * 1024,
)

SERVERCLASS = SystemConfig(
    name="ServerClass",
    core=SERVERCLASS_CORE,
    n_cores=40,                   # iso-power vs uManycore
    cores_per_village=40,         # one shared L3 domain
    cores_per_queue=40,
    n_clusters=40,                # mesh tile per core
    topology="mesh",
    cs=SHINJUKU_CS,
    coherence_domain_cores=40,
    rpc_processing_ns=SW_RPC_NS,
    l2_latency_cycles=16.0,
    link_bytes_per_ns=64.0,       # on-die mesh links are wide
    sw_rpc_core_ns=130_000.0,
    preempt_quantum_ns=15_000.0,
    preempt_op_cycles=450.0,
    state_bytes_per_invocation=1024 * 1024,
)

SERVERCLASS_128 = replace(
    SERVERCLASS, name="ServerClass-128", n_cores=128,
    cores_per_village=128, cores_per_queue=128, n_clusters=128,
    coherence_domain_cores=128)

#: uManycore cut to 128 cores in 8 clusters, for the figures and trials
#: whose many short runs a 1024-core build would dominate.  Its tables
#: still label it "uManycore".
UMANYCORE_128 = replace(UMANYCORE, n_cores=128, n_clusters=8)


def ablation_ladder() -> List[SystemConfig]:
    """Figure 15: apply the four uManycore techniques to ScaleOut in order.

    villages -> +leaf-spine ICN -> +HW scheduling -> +HW context switch
    (the last step IS uManycore).
    """
    villages = replace(
        SCALEOUT, name="+Villages", cores_per_queue=8,
        coherence_domain_cores=8,
        local_state_fraction=UMANYCORE.local_state_fraction)
    leafspine = replace(villages, name="+Leaf-spine", topology="leafspine")
    # HW scheduling moves enqueue/dequeue/queuing into the RQ hardware,
    # but context save/restore is still done by the centralized software
    # scheduler (the paper adds HW context switching as the *next* step).
    hw_sched_cs = ContextSwitchConfig(
        name="sw-switch-hw-sched",
        save_cycles=SHINJUKU_CS.save_cycles,
        restore_cycles=SHINJUKU_CS.restore_cycles,
        scheduler_op_cycles=0.0, centralized=True)
    hw_sched = replace(leafspine, name="+HW Scheduling", cs=hw_sched_cs,
                       rpc_processing_ns=HW_RPC_NS, hw_queues=True,
                       sw_rpc_core_ns=0.0, preempt_quantum_ns=0.0,
                       preempt_op_cycles=0.0)
    hw_cs = replace(hw_sched, name="+HW Context Switch", cs=HARDWARE_CS)
    return [villages, leafspine, hw_sched, hw_cs]


def heterogeneous_umanycore(big_village_fraction: float = 0.25,
                            big_core: CoreConfig = None) -> SystemConfig:
    """Section 8: a uManycore with a mix of village types.

    A fraction of villages get beefier cores; the placement policy sends
    call-free (leaf) services to big villages and call-heavy orchestration
    services to the many small ones.
    """
    big = big_core or CoreConfig("big-village", issue_width=6,
                                 rob_entries=192, lsq_entries=128,
                                 freq_ghz=2.6, mispredict_penalty=16)
    return replace(UMANYCORE, name=f"uManycore-hetero{big_village_fraction}",
                   big_core=big, big_village_fraction=big_village_fraction)


def umanycore_variant(cores_per_village: int, villages_per_cluster: int,
                      n_clusters: int) -> SystemConfig:
    """Figure 19 topology variants: (cores/village, villages/cluster,
    clusters); total cores must stay 1024."""
    total = cores_per_village * villages_per_cluster * n_clusters
    if total != 1024:
        raise ValueError(f"variant must total 1024 cores, got {total}")
    return replace(
        UMANYCORE,
        name=f"uManycore-{cores_per_village}x{villages_per_cluster}x{n_clusters}",
        cores_per_village=min(cores_per_village, 8),  # L2 stays 8-core
        cores_per_queue=cores_per_village,
        coherence_domain_cores=cores_per_village,
        n_clusters=n_clusters,
    )
