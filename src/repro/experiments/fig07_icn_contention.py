"""Figure 7: impact of on-package ICN contention on tail latency.

Paper setup: DeathStarBench on the 1024-core ScaleOut (32-core clusters)
with a 2D-mesh or fat-tree ICN at 5 cycles/hop, loads 1K/5K/10K/50K RPS;
each bar normalized to the same environment without ICN contention.

Paper result: contention inflates the tail up to 14.7x (mesh) and 7.5x
(fat-tree) at 50K RPS — the motivation for the leaf-spine design.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.core.context_switch import HARDWARE_CS
from repro.experiments.common import Settings, format_table, point_for
from repro.runner import run_points
from repro.systems.configs import SCALEOUT
from repro.workloads.deathstar import social_network_app

LOADS = (1000, 5000, 10000, 50000)
TOPOLOGIES = ("mesh", "fattree")


def _config(topology: str, contention: bool):
    # Neutral (hardware) scheduling isolates the ICN effect.  The 2D mesh
    # spans the whole die with per-tile links, which are narrower than
    # the aggregated NH-to-NH trunks of the tree fabrics.
    link_bw = 5.0 if topology == "mesh" else 14.0
    return replace(SCALEOUT, name=f"ScaleOut-{topology}"
                   f"{'' if contention else '-nc'}",
                   topology=topology, cs=HARDWARE_CS, hw_queues=True,
                   rq_capacity=100_000, link_bytes_per_ns=link_bw,
                   sw_rpc_core_ns=0.0, preempt_quantum_ns=0.0,
                   preempt_op_cycles=0.0, icn_contention=contention)


def run(loads: Tuple[int, ...] = LOADS,
        compute_scale: float = 4.0,
        settings: Settings = Settings(n_servers=1, duration_s=0.04)
        ) -> Dict[Tuple[str, int], float]:
    """Normalized tail (contention / no-contention) per (topology, load)."""
    app = social_network_app("Text", compute_scale=compute_scale)
    cells = [(topology, rps, contention)
             for topology in TOPOLOGIES for rps in loads
             for contention in (True, False)]
    results = run_points(
        [point_for(_config(topology, contention), app, rps, settings)
         for topology, rps, contention in cells])
    tails = {cell: r.p99_ns for cell, r in zip(cells, results)}
    return {(topology, rps): (tails[(topology, rps, True)]
                              / tails[(topology, rps, False)])
            for topology in TOPOLOGIES for rps in loads}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    rows = []
    for rps in LOADS:
        rows.append([f"{rps//1000}K",
                     f"{results[('mesh', rps)]:.2f}",
                     f"{results[('fattree', rps)]:.2f}"])
    print("Figure 7: tail latency normalized to no-ICN-contention")
    print(format_table(["load (RPS)", "2D mesh", "fat tree"], rows))
    print("\npaper at 50K RPS: mesh 14.7x, fat-tree 7.5x; "
          "mesh worse than fat-tree at every load")
