"""Shared harness for the end-to-end latency matrix (Figures 14, 16, 17).

One matrix of runs — 3 systems x 8 SocialNetwork request types x 3 load
levels — feeds the tail-latency figure (14), the average-latency figure
(16) and the tail-to-average figure (17).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.experiments.common import APP_ORDER, PAPER_LOADS, QUICK, \
    Settings, format_table, geomean, point_for
from repro.runner import run_points
from repro.systems.cluster import RunResult
from repro.systems.configs import SCALEOUT, SERVERCLASS, UMANYCORE
from repro.workloads.deathstar import social_network_app

SYSTEMS = (UMANYCORE, SCALEOUT, SERVERCLASS)


def run(loads: Sequence[int] = PAPER_LOADS,
        apps: Sequence[str] = tuple(APP_ORDER),
        settings: Settings = Settings()
        ) -> Dict[Tuple[str, str, float], RunResult]:
    """Run the shared 3-systems x apps x loads latency matrix.

    The whole grid is submitted to :func:`~repro.runner.run_points` as
    one batch, so ``--jobs N`` parallelises it transparently;
    the returned table is identical for any jobs count or cache state.
    """
    app_specs = [social_network_app(name) for name in apps]
    cells = [(config, app, rps)
             for rps in loads for app in app_specs for config in SYSTEMS]
    results = run_points([point_for(config, app, rps, settings)
                          for config, app, rps in cells])
    return {(config.name, app.name, rps): result
            for (config, app, rps), result in zip(cells, results)}


def reduction_vs(matrix, metric: str, baseline: str, load: int,
                 apps: Sequence[str] = tuple(APP_ORDER)) -> float:
    """Geomean of baseline/uManycore for ``metric`` at one load."""
    ratios = []
    for app in apps:
        um = getattr(matrix[("uManycore", app, load)], metric)
        base = getattr(matrix[(baseline, app, load)], metric)
        ratios.append(base / um)
    return geomean(ratios)


def print_reductions(figure: int, metric: str, label: str,
                     paper_sc: Mapping[int, float],
                     paper_so: Mapping[int, float], quick: bool) -> None:
    """Print Figure 14 or 16: one table per load of ``metric`` per app
    (ServerClass in ms, the others normalized to it), then the geomean
    ``label`` reductions next to the paper's ``paper_sc``/``paper_so``."""
    matrix = run(settings=QUICK if quick else Settings())
    for load in PAPER_LOADS:
        rows = []
        for app in APP_ORDER:
            sc = getattr(matrix[("ServerClass", app, load)], metric)
            so = getattr(matrix[("ScaleOut", app, load)], metric)
            um = getattr(matrix[("uManycore", app, load)], metric)
            rows.append([app, f"{sc/1e6:.2f}", f"{so/sc:.3f}",
                         f"{um/sc:.3f}"])
        print(f"\nFigure {figure} — load {load//1000}K RPS "
              f"(ServerClass ms; others normalized to ServerClass)")
        print(format_table(["app", "ServerClass(ms)", "ScaleOut",
                            "uManycore"], rows))
        sc_x = reduction_vs(matrix, metric, "ServerClass", load)
        so_x = reduction_vs(matrix, metric, "ScaleOut", load)
        print(f"{label} reduction: vs ServerClass {sc_x:.1f}x "
              f"(paper {paper_sc[load]}x); vs ScaleOut {so_x:.1f}x "
              f"(paper {paper_so[load]}x)")
