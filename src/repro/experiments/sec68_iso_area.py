"""Section 6.8: comparison to an iso-area ServerClass CPU.

Paper: scaling ServerClass to 128 cores (same area as uManycore) makes it
match or slightly beat ScaleOut, but its tail is still 7.3x higher than
uManycore's on average across loads and apps — and it burns 3.2x more
power.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.common import PAPER_LOADS, QUICK, Settings, \
    format_table, geomean, point_for
from repro.power import system_budget
from repro.runner import run_points
from repro.systems.configs import SERVERCLASS_128, UMANYCORE
from repro.workloads.deathstar import social_network_app

DEFAULT_APPS = ("Text", "SGraph", "CPost", "UrlShort")


def run(apps=DEFAULT_APPS, loads=PAPER_LOADS,
        settings: Settings = Settings()) -> Dict[Tuple[str, str, int], float]:
    """P99 (ns) per (system, app, load) for the iso-area pair."""
    cells = [(config, app_name, rps)
             for app_name in apps for rps in loads
             for config in (UMANYCORE, SERVERCLASS_128)]
    results = run_points(
        [point_for(config, social_network_app(app_name), rps, settings)
         for config, app_name, rps in cells])
    return {(config.name, app_name, rps): r.p99_ns
            for (config, app_name, rps), r in zip(cells, results)}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    results = run(settings=QUICK if quick else Settings())
    apps = sorted({a for __, a, __l in results})
    rows, ratios = [], []
    for app in apps:
        for rps in PAPER_LOADS:
            ratio = results[("ServerClass-128", app, rps)] / \
                results[("uManycore", app, rps)]
            ratios.append(ratio)
            rows.append([app, f"{rps//1000}K", f"{ratio:.2f}"])
    print("Section 6.8: iso-area ServerClass (128 cores) tail vs uManycore")
    print(format_table(["app", "load", "SC128/uM tail"], rows))
    print(f"\naverage: {geomean(ratios):.1f}x (paper 7.3x)")
    power_ratio = system_budget(SERVERCLASS_128).power_w / \
        system_budget(UMANYCORE).power_w
    print(f"power: ServerClass-128 uses {power_ratio:.1f}x the uManycore "
          f"power (paper 3.2x)")
