"""Figure 17: tail-to-average latency ratio per application.

Paper: averaged across loads, uManycore's P99/mean ratio is 2.7x lower
than ServerClass's and 2.3x lower than ScaleOut's (absolute ServerClass
ratios 3.1-7.7, average 4.6) — latency becomes predictable.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import APP_ORDER, PAPER_LOADS, QUICK, \
    Settings, format_table, geomean
from repro.experiments.latency_matrix import run


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    matrix = run(settings=QUICK if quick else Settings())
    rows = []
    ratios = {"uManycore": [], "ScaleOut": [], "ServerClass": []}
    for app in APP_ORDER:
        per_system = {}
        for system in ratios:
            vals = [matrix[(system, app, load)].summary.tail_to_average
                    for load in PAPER_LOADS]
            per_system[system] = float(np.mean(vals))
            ratios[system].append(per_system[system])
        rows.append([app, f"{per_system['ServerClass']:.2f}",
                     f"{per_system['ScaleOut']:.2f}",
                     f"{per_system['uManycore']:.2f}"])
    print("Figure 17: tail-to-average ratio (absolute), avg across loads")
    print(format_table(["app", "ServerClass", "ScaleOut", "uManycore"],
                       rows))
    sc = geomean(ratios["ServerClass"]) / geomean(ratios["uManycore"])
    so = geomean(ratios["ScaleOut"]) / geomean(ratios["uManycore"])
    print(f"\nuManycore ratio lower than ServerClass by {sc:.1f}x "
          f"(paper 2.7x), than ScaleOut by {so:.1f}x (paper 2.3x)")
