"""Figure 20: tail latency with synthetic service-time distributions.

Paper setup: exponential, lognormal, bimodal service times with blocking
calls (Shinjuku-style synthetic benchmarks) at 5K/10K/15K RPS.

Paper result: the DeathStarBench trends hold — uManycore cuts the tail by
9.1x over ServerClass and 7.2x over ScaleOut on average, growing with
load.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.common import PAPER_LOADS, QUICK, Settings, \
    format_table, geomean, point_for
from repro.runner import run_points
from repro.systems.configs import SCALEOUT, SERVERCLASS, UMANYCORE
from repro.workloads.synthetic import SYNTHETIC_DISTRIBUTIONS, synthetic_app

SYSTEMS = (UMANYCORE, SCALEOUT, SERVERCLASS)


def run(loads=PAPER_LOADS, settings: Settings = Settings()
        ) -> Dict[Tuple[str, str, int], float]:
    """P99 (ns) per (system, distribution, load)."""
    cells = [(config, dist, rps)
             for dist in SYNTHETIC_DISTRIBUTIONS
             for rps in loads for config in SYSTEMS]
    results = run_points(
        [point_for(config,
                   synthetic_app(dist, mean_service_us=120.0,
                                 blocking_calls=4),
                   rps, settings)
         for config, dist, rps in cells])
    return {(config.name, dist, rps): r.p99_ns
            for (config, dist, rps), r in zip(cells, results)}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    results = run(settings=QUICK if quick else Settings())
    rows = []
    ratios_sc, ratios_so = [], []
    for dist in SYNTHETIC_DISTRIBUTIONS:
        for rps in PAPER_LOADS:
            sc = results[("ServerClass", dist, rps)]
            so = results[("ScaleOut", dist, rps)]
            um = results[("uManycore", dist, rps)]
            ratios_sc.append(sc / um)
            ratios_so.append(so / um)
            rows.append([f"{dist[:3].capitalize()}{rps//1000}K",
                         f"{sc/1e3:.0f}", f"{so/sc:.3f}", f"{um/sc:.3f}"])
    print("Figure 20: synthetic-workload tail latency "
          "(ServerClass us; others normalized to ServerClass)")
    print(format_table(["workload", "ServerClass(us)", "ScaleOut",
                        "uManycore"], rows))
    print(f"\naverage tail reduction: {geomean(ratios_sc):.1f}x vs "
          f"ServerClass (paper 9.1x); {geomean(ratios_so):.1f}x vs "
          f"ScaleOut (paper 7.2x)")
