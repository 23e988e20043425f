"""Figure 19: sensitivity to the uManycore topology configuration.

Paper setup: four (cores/village, villages/cluster, clusters) shapes at
15K RPS, normalized to the default 8x4x32.

Paper result: all within 15 % of each other; services with no downstream
calls (UrlShort) slightly prefer big villages (32x1x32); call-heavy
services (HomeT, SGraph) prefer many small villages; the default has the
lowest overall tail.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.common import APP_ORDER, QUICK, Settings, \
    format_table, point_for
from repro.runner import run_points
from repro.systems.configs import umanycore_variant
from repro.workloads.deathstar import social_network_app

SHAPES = ((8, 4, 32), (32, 1, 32), (32, 2, 16), (32, 4, 8))


def run(rps: float = 15_000, apps=tuple(APP_ORDER),
        settings: Settings = Settings()) -> Dict[Tuple[Tuple, str], float]:
    """P99 (ns) per (topology shape, app) at one load."""
    cells = [(shape, app_name) for app_name in apps for shape in SHAPES]
    results = run_points(
        [point_for(umanycore_variant(*shape), social_network_app(app_name),
                   rps, settings)
         for shape, app_name in cells])
    return {cell: r.p99_ns for cell, r in zip(cells, results)}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    results = run(settings=QUICK if quick else Settings())
    headers = ["app"] + ["x".join(map(str, s)) for s in SHAPES]
    rows = []
    for app in APP_ORDER:
        base = results[(SHAPES[0], app)]
        rows.append([app] + [f"{results[(s, app)] / base:.2f}"
                             for s in SHAPES])
    print("Figure 19: tail latency of topology variants "
          "(normalized to 8x4x32), 15K RPS")
    print(format_table(headers, rows))
    print("\npaper: all within ~15%; default best overall")
