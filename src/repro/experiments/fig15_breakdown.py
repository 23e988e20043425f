"""Figure 15: cumulative contribution of the four uManycore techniques.

Paper setup: start from ScaleOut at 15K RPS and apply, in order, villages,
the leaf-spine ICN, hardware scheduling, and hardware context switching;
report tail-latency reduction vs ScaleOut after each step.

Paper result (average): 1.1x, 2.3x, 3.9x, 7.4x cumulative.

The *where-the-time-goes* half of the figure is derived from telemetry:
each step is re-run with a :class:`~repro.telemetry.Tracer` and the
per-category decomposition (RQ wait / compute / ICN / context switch /
storage ...) comes from the span stream via
:func:`repro.telemetry.aggregate_breakdown` — per-request category times
sum to the end-to-end latency exactly, so the table is consistent with
the latency summary by construction.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.ascii_plot import bar_chart
from repro.experiments.common import APP_ORDER, QUICK, Settings, \
    format_table, geomean, point_for
from repro.runner import run_points
from repro.systems.cluster import simulate
from repro.systems.configs import SCALEOUT, ablation_ladder
from repro.telemetry import BREAKDOWN_CATEGORIES, Tracer, \
    aggregate_breakdown
from repro.workloads.deathstar import social_network_app

PAPER = {"+Villages": 1.1, "+Leaf-spine": 2.3, "+HW Scheduling": 3.9,
         "+HW Context Switch": 7.4}


def run(rps: float = 15_000, apps=tuple(APP_ORDER),
        settings: Settings = Settings()) -> Dict[Tuple[str, str], float]:
    """P99 (ns) per (step name, app); step 'ScaleOut' is the baseline."""
    steps = [SCALEOUT] + ablation_ladder()
    cells = [(cfg, social_network_app(app_name), app_name)
             for app_name in apps for cfg in steps]
    results = run_points([point_for(cfg, app, rps, settings)
                          for cfg, app, __ in cells])
    return {(cfg.name, app_name): r.p99_ns
            for (cfg, __, app_name), r in zip(cells, results)}


def span_breakdown(rps: float = 15_000, app_name: str = "Text",
                   settings: Settings = Settings()
                   ) -> Dict[str, Dict[str, object]]:
    """Span-derived latency decomposition per ablation step.

    One traced run per step; returns ``step name -> aggregate breakdown``
    (see :func:`repro.telemetry.aggregate_breakdown`).
    """
    app = social_network_app(app_name)
    out: Dict[str, Dict[str, object]] = {}
    for cfg in [SCALEOUT] + ablation_ladder():
        tracer = Tracer()
        result = simulate(cfg, app, rps_per_server=rps,
                          n_servers=settings.n_servers,
                          duration_s=settings.duration_s, seed=settings.seed,
                          warmup_fraction=settings.warmup_fraction,
                          tracer=tracer)
        out[cfg.name] = aggregate_breakdown(tracer,
                                            after_ns=result.warmup_ns)
    return out


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    settings = QUICK if quick else Settings()
    results = run(settings=settings)
    step_names = [cfg.name for cfg in ablation_ladder()]
    rows = []
    for app in APP_ORDER:
        base = results[("ScaleOut", app)]
        rows.append([app] + [f"{base / results[(s, app)]:.2f}"
                             for s in step_names])
    print("Figure 15: cumulative tail-latency reduction vs ScaleOut, "
          "15K RPS")
    print(format_table(["app"] + step_names, rows))
    reductions = []
    for step in step_names:
        avg = geomean([results[("ScaleOut", app)] / results[(step, app)]
                       for app in APP_ORDER])
        reductions.append(avg)
        print(f"{step}: {avg:.2f}x (paper {PAPER[step]}x)")
    print()
    print(bar_chart(step_names, reductions,
                    title="cumulative tail reduction (x)"))
    print()
    print("Where the time goes (Text, % of mean latency, from spans):")
    breakdowns = span_breakdown(settings=settings)
    cats = [c for c in BREAKDOWN_CATEGORIES]
    bd_rows = []
    for step, agg in breakdowns.items():
        if agg is None:
            bd_rows.append([step] + ["-"] * (len(cats) + 1))
            continue
        bd_rows.append(
            [step]
            + [f"{100.0 * agg['fraction'][c]:.1f}" for c in cats]
            + [f"{agg['wall_mean_ns'] / 1e3:.0f}"])
    print(format_table(["step"] + cats + ["mean us"], bd_rows))
