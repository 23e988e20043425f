"""Figure S (extension): the scheduling-policy comparison.

Not a paper figure — Section 4.3 argues the hardware's FCFS + ServiceMap
round-robin is sufficient for microservices ("requests of the same
service have similar durations"), but never measures the alternatives.
This experiment does, using the pluggable :mod:`repro.sched` layer: a
reduced uManycore runs the same workload under every combination of the
three decision points — NIC dispatch (round-robin vs least-occupancy vs
affinity), intra-village ordering (FCFS vs SRPT vs measured-service-time
SJF) and inter-village stealing — across load levels, both fault-free
and under the Figure F leaf-adjacent link-failure schedule.

A second table ablates the nanoPU-style core bypass on a *software*
scheduled (ScaleOut-class) build: on uManycore the scheduler op is free
hardware, so skipping it cannot pay; where dispatch costs real scheduler
time, landing an arrival straight on an idle core removes that cost from
every low-load request.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.experiments.common import Settings, format_table, point_for
from repro.experiments.figF_faults import QUICK_SETTINGS, RESILIENCE, \
    SETTINGS, pick_links
from repro.faults import FaultSchedule
from repro.runner import run_points
from repro.systems.cluster import ClusterSimulation, RunResult
from repro.systems.configs import SCALEOUT, UMANYCORE_128
from repro.workloads.deathstar import social_network_app

#: Reduced-scale server (matches Figure F's build).
BASE = UMANYCORE_128

#: label -> SystemConfig field overrides, one table row group each.
COMBOS: Tuple[Tuple[str, dict], ...] = (
    ("rr+fcfs", {}),                                  # the paper hardware
    ("least+fcfs", {"dispatch": "least"}),
    ("affinity+fcfs", {"dispatch": "affinity"}),
    ("rr+srpt", {"rq_policy": "srpt"}),
    ("rr+sjf", {"rq_policy": "sjf"}),
    ("rr+steal", {"steal": "maxload"}),
)

#: The reduced 128-core build saturates near ~90K RPS/server; the grid
#: spans light load (policies indistinguishable — queues are empty),
#: ~2/3 of saturation, and the knee where ordering/stealing matter.
LOADS = (30_000, 60_000, 75_000)
FAILED_LINKS = 2          # the Figure F mid-severity point

#: Software-scheduled build for the core-bypass ablation.
SCALEOUT_BASE = replace(SCALEOUT, name="ScaleOut-128", n_cores=128,
                        n_clusters=4, coherence_domain_cores=128)
BYPASS_LOADS = (4_000, 8_000)


def _combo_config(label: str, overrides: dict):
    return replace(BASE, name=f"uManycore-{label}", **overrides)


def run(settings: Settings,
        loads: Tuple[float, ...] = LOADS
        ) -> Dict[Tuple[str, bool, float], RunResult]:
    """One run per (policy combo, faulted?, load).

    The faulted runs reuse the Figure F severity class: ``FAILED_LINKS``
    leaf-adjacent ICN links fail at 30% of the run (past warm-up, no
    recovery) on every server, under the Figure F resilience policy.
    """
    app = social_network_app("Text")
    # All combos share BASE's topology; one throwaway build exposes the
    # node names the fault schedule targets.
    topo = ClusterSimulation(
        BASE, app, loads[0], n_servers=1, duration_s=settings.duration_s,
        seed=settings.seed).servers[0].topology
    fail_at = 0.3 * settings.duration_s * 1e9
    sched = FaultSchedule()
    for (u, v) in pick_links(topo, FAILED_LINKS):
        for sid in range(settings.n_servers):
            sched.fail_link(sid, u, v, at_ns=fail_at)
    points, cells = [], []
    for label, overrides in COMBOS:
        cfg = _combo_config(label, overrides)
        for faulted in (False, True):
            for rps in loads:
                cells.append((label, faulted, rps))
                points.append(point_for(
                    cfg, app, rps, settings,
                    faults=sched if faulted else None,
                    resilience=RESILIENCE if faulted else None))
    return dict(zip(cells, run_points(points)))


def run_bypass(settings: Settings,
               loads: Tuple[float, ...] = BYPASS_LOADS
               ) -> Dict[Tuple[bool, float], RunResult]:
    """Core-bypass on/off on the software-scheduled build."""
    app = social_network_app("Text")
    points, cells = [], []
    for bypass in (False, True):
        cfg = SCALEOUT_BASE if not bypass else replace(
            SCALEOUT_BASE, name="ScaleOut-128-bypass", core_bypass=True)
        for rps in loads:
            cells.append((bypass, rps))
            points.append(point_for(cfg, app, rps, settings))
    return dict(zip(cells, run_points(points)))


def _rows(results, loads, faulted: bool):
    rows = []
    for label, __ in COMBOS:
        for rps in loads:
            r = results[(label, faulted, rps)]
            ss = r.stats.get("sched", {})
            row = [label, f"{rps:g}",
                   f"{r.summary.p50 / 1e3:.1f}",
                   f"{r.p99_ns / 1e3:.1f}",
                   f"{r.summary.p999 / 1e3:.1f}",
                   r.completed,
                   int(ss.get("steals", 0)),
                   int(ss.get("spills", 0))]
            if faulted:
                row.append(f"{r.availability:.3f}")
            rows.append(row)
    return rows


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    settings = QUICK_SETTINGS if quick else SETTINGS
    results = run(settings)
    headers = ["policy", "rps", "p50 us", "p99 us", "p999 us",
               "completed", "steals", "spills"]
    print("Figure S: scheduling policies vs load (fault-free)\n")
    print(format_table(headers, _rows(results, LOADS, faulted=False)))
    print(f"\nFigure S: same grid under {FAILED_LINKS} failed "
          f"leaf-adjacent links (Figure F schedule)\n")
    print(format_table(headers + ["avail"],
                       _rows(results, LOADS, faulted=True)))
    top = LOADS[-1]
    base_p99 = results[("rr+fcfs", False, top)].p99_ns
    print(f"\np99 at {top:g} RPS vs rr+fcfs "
          f"({base_p99 / 1e3:.1f} us):")
    for label, __ in COMBOS[1:]:
        p99 = results[(label, False, top)].p99_ns
        print(f"  {label:14s} {p99 / 1e3:8.1f} us  "
              f"({p99 / base_p99:5.2f}x)")

    bypass = run_bypass(settings)
    print("\nFigure S: core bypass on the software-scheduled build "
          f"({SCALEOUT_BASE.name})\n")
    rows = []
    for on in (False, True):
        for rps in BYPASS_LOADS:
            r = bypass[(on, rps)]
            ss = r.stats.get("sched", {})
            rows.append(["bypass" if on else "queued", f"{rps:g}",
                         f"{r.summary.p50 / 1e3:.1f}",
                         f"{r.p99_ns / 1e3:.1f}",
                         f"{r.summary.p999 / 1e3:.1f}",
                         r.completed, int(ss.get("bypasses", 0))])
    print(format_table(["mode", "rps", "p50 us", "p99 us", "p999 us",
                        "completed", "bypasses"], rows))
    print("\nWork stealing flattens the high-load tail; slot-occupancy "
          "dispatch (least/affinity) misfires because RQ slots count "
          "blocked-on-RPC entries, a poor proxy for CPU backlog; the "
          "bypass only pays where the scheduler op costs real time.")
