"""Figure F (extension): tail latency and goodput under link failures.

Not a paper figure — the paper claims the hierarchical leaf-spine's
"many redundant equal-cost paths" (Section 4.2) as a robustness
property but never measures it.  This experiment does: the same
uManycore server is built with its native leaf-spine ICN, a fat-tree,
and a 2D mesh, and k leaf-adjacent links are failed mid-run (no
recovery) under a timeout/retry resilience policy.

Expected shape:

* **leaf-spine** — ECMP re-picks a surviving equal-cost path; p99 and
  goodput are essentially flat in k (failures are invisible).
* **fat-tree** — the fabric is a tree, so each failed link partitions
  the leaves below it; traffic into the partition blackholes until the
  RPC timeout fires and the retry lands on another instance.
* **2D mesh** — XY dimension-order routers have no fallback; every
  route crossing a dead link blackholes even though the grid remains
  connected, with the same timeout-inflated tail.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.experiments.common import QUICK, Settings, format_table, \
    point_for
from repro.faults import FaultSchedule, ResilienceConfig
from repro.icn import FatTree, HierarchicalLeafSpine, Mesh2D, Topology
from repro.runner import run_points
from repro.systems.cluster import ClusterSimulation, RunResult
from repro.systems.configs import UMANYCORE_128
from repro.workloads.deathstar import social_network_app

#: Reduced-scale server (the full 1024-core build takes minutes/point).
BASE = UMANYCORE_128
VARIANTS = (
    BASE,
    replace(BASE, name="uManycore-fattree", topology="fattree"),
    replace(BASE, name="uManycore-mesh", topology="mesh"),
)

FAILED_LINKS = (0, 1, 2, 4)
LOAD_RPS = 20_000            # mid load for the reduced-scale server

#: Full scale of the reduced-server extension figures (F, S and D),
#: and the ``--quick`` scale of S and D (F has none).  10 ms per point
#: bounds their cost: the S combo grid is 6x wider than most figures'.
SETTINGS = Settings(n_servers=2, duration_s=0.01, seed=3)
QUICK_SETTINGS = replace(QUICK, duration_s=SETTINGS.duration_s)

#: Timeout sits ~2x above the healthy p99 so retries never fire in
#: fault-free runs (no retry storms), with a short capped backoff.
RESILIENCE = ResilienceConfig(timeout_ns=2_500_000.0, max_retries=3,
                              backoff_base_ns=100_000.0,
                              backoff_cap_ns=800_000.0)


def pick_links(topo: Topology, k: int) -> List[Tuple[str, str]]:
    """k leaf-adjacent fabric links, the comparable severity class:
    each topology loses k first-hop links next to traffic sources."""
    if isinstance(topo, HierarchicalLeafSpine):
        return [(topo.leaf_name(i % topo.n_pods,
                                (i // topo.n_pods) % topo.leaves_per_pod),
                 topo.spine_name(i % topo.n_pods, 0))
                for i in range(k)]
    if isinstance(topo, FatTree):
        return [(topo.switch(0, i % topo.n_leaves),
                 topo.switch(1, (i % topo.n_leaves) // 2))
                for i in range(k)]
    if isinstance(topo, Mesh2D):
        per_row = topo.cols - 1     # horizontal links per row
        return [(topo.tile(i % per_row, i // per_row),
                 topo.tile(i % per_row + 1, i // per_row))
                for i in range(k)]
    raise TypeError(f"no link picker for {type(topo).__name__}")


def run(failed_links: Tuple[int, ...] = FAILED_LINKS,
        rps: float = LOAD_RPS,
        settings: Settings = SETTINGS) -> Dict[Tuple[str, int], RunResult]:
    """One run per (topology variant, k failed links).

    Links fail at 30% of the run (past warm-up) and stay down, on every
    server.  k=0 is the clean baseline (no injector, no resilience) —
    byte-identical to the pre-fault simulator.
    """
    app = social_network_app("Text")
    points, cells = [], []
    for cfg in VARIANTS:
        # A throwaway (never-run) build of the server exposes the
        # topology's node names, from which the fault targets are picked.
        topo = ClusterSimulation(
            cfg, app, rps, n_servers=1, duration_s=settings.duration_s,
            seed=settings.seed).servers[0].topology
        for k in failed_links:
            faults = resilience = None
            if k:
                fail_at = 0.3 * settings.duration_s * 1e9
                sched = FaultSchedule()
                for (u, v) in pick_links(topo, k):
                    for sid in range(settings.n_servers):
                        sched.fail_link(sid, u, v, at_ns=fail_at)
                faults, resilience = sched, RESILIENCE
            cells.append((cfg.name, k))
            points.append(point_for(cfg, app, rps, settings,
                                    faults=faults, resilience=resilience))
    return dict(zip(cells, run_points(points)))


def _bar(ratio: float, scale: float = 2.0, width: int = 32) -> str:
    n = min(width, max(1, int(round(ratio * scale))))
    return "#" * n


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    print("Figure F: p99 and goodput vs failed leaf-adjacent links\n")
    rows = []
    base_p99: Dict[str, float] = {}
    for cfg in VARIANTS:
        for k in FAILED_LINKS:
            r = results[(cfg.name, k)]
            if k == 0:
                base_p99[cfg.name] = r.p99_ns
            fs = r.stats.get("faults", {})
            rows.append([
                cfg.name, k,
                f"{r.p99_ns / 1e3:.0f}",
                f"{r.p99_ns / base_p99[cfg.name]:.2f}x",
                f"{r.goodput_rps:.0f}",
                f"{r.availability:.3f}",
                r.failed,
                int(fs.get("rpc_retries", 0)),
                int(fs.get("icn_dropped", 0)),
            ])
    print(format_table(
        ["system", "k", "p99 (us)", "p99 ratio", "goodput RPS",
         "avail", "failed", "retries", "dropped"], rows))
    print("\np99 degradation (ratio to k=0):")
    for cfg in VARIANTS:
        curve = "  ".join(
            f"k={k}:{results[(cfg.name, k)].p99_ns / base_p99[cfg.name]:5.2f}"
            for k in FAILED_LINKS)
        worst = results[(cfg.name, FAILED_LINKS[-1])].p99_ns \
            / base_p99[cfg.name]
        print(f"  {cfg.name:20s} {curve}  {_bar(worst)}")
    print("\nECMP redundancy keeps the leaf-spine flat; the fat-tree "
          "partitions and the XY mesh blackholes, so both pay the "
          "timeout+retry tail.")
