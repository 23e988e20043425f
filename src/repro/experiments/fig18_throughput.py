"""Figure 18: maximum throughput without QoS violations.

Paper setup: QoS is violated when a request takes more than 5x the
contention-free average; the figure reports the highest load each system
sustains.  Paper result: uManycore reaches 13.9-17.1x (avg 15.5x) the
ServerClass throughput and 4.3x ScaleOut's, with absolute uManycore
throughput of 150-254 KRPS per server across the apps.

We binary-search the per-server load: a run passes when its P99 stays
under 5x the contention-free average (measured at a very light load) and
nothing is rejected.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import Settings, format_table, geomean, \
    point_for
from repro.hybrid import saturation_estimate_rps
from repro.metrics.throughput import qos_threshold_ns
from repro.runner import SweepPoint, execution, run_points
from repro.systems.configs import SCALEOUT, SERVERCLASS, UMANYCORE
from repro.workloads.deathstar import social_network_app

SYSTEMS = (UMANYCORE, SCALEOUT, SERVERCLASS)
DEFAULT_APPS = ("Text", "SGraph", "CPost", "UrlShort")


def _passes(result, threshold_ns: float) -> bool:
    return result.p99_ns <= threshold_ns and result.rejected == 0


def max_throughputs(pairs: Sequence[Tuple], settings: Settings,
                    low: float = 1000.0, high: float = 300_000.0,
                    iterations: int = 8,
                    speculate: bool = None) -> List[float]:
    """Lockstep binary search over many (config, app) pairs at once.

    Every round batches the probe loads of *all* still-active pairs
    into one :func:`~repro.runner.run_points` call, so the search
    parallelises across pairs while each pair runs the exact sequence
    of simulations the serial per-pair search would — the returned
    loads are independent of the jobs count.

    With ``speculate`` (the default whenever the execution context has
    more than one worker), each round *also* batches the probe the
    next bisection level would issue if the current one lands the way
    the analytic M/G/k saturation estimate predicts
    (:func:`repro.hybrid.saturation_estimate_rps`: pass below the
    estimated saturating load, fail above).  A correct prediction
    consumes two levels per round; a wrong one wastes the speculative
    point.  Probes are deterministic simulations keyed only by their
    load, so the accepted bracket sequence — and the returned loads —
    are byte-identical with speculation on, off, or partially wrong.

    Args:
        pairs: (config, app) pairs to search, in result order.
        settings: Scale knobs for the probe runs.
        low: Load that must pass for the search to proceed; returned
            as-is for pairs that fail it.
        high: Upper bracket of the search (never probed directly).
        iterations: Bisection levels; the bracket shrinks 2^-it.
        speculate: Batch analytic-predicted next-level probes; None
            resolves to ``execution().jobs > 1`` (serial runs keep
            the classic one-probe-per-round schedule exactly).

    Returns:
        The largest QoS-compliant per-server load found for each pair,
        positionally aligned with ``pairs``.
    """
    if speculate is None:
        speculate = execution().jobs > 1
    # Round 0: contention-free calibration sets each pair's threshold.
    thresholds = [
        qos_threshold_ns(r.mean_ns) for r in run_points(
            [SweepPoint(config=config, app=app, rps=200.0, n_servers=1,
                        duration_s=min(0.05, settings.duration_s * 2),
                        seed=settings.seed, warmup_fraction=0.1)
             for config, app in pairs])]
    # Round 1: pairs that fail at `low` drop out and just return it.
    lows = [low] * len(pairs)
    highs = [high] * len(pairs)
    first = run_points([point_for(config, app, low, settings)
                        for config, app in pairs])
    saturation = [saturation_estimate_rps(config, app)
                  for config, app in pairs] if speculate else None
    remaining = {i: iterations for i, r in enumerate(first)
                 if _passes(r, thresholds[i])}
    # Bisection rounds: one batched probe per round for every live
    # pair (plus its predicted next-level probe when speculating).
    while remaining:
        plan, batch = [], []
        for i in sorted(remaining):
            config, app = pairs[i]
            mid = (lows[i] + highs[i]) / 2.0
            batch.append(point_for(config, app, mid, settings))
            spec = None
            if speculate and remaining[i] > 1:
                spec = ((mid + highs[i]) / 2.0 if mid <= saturation[i]
                        else (lows[i] + mid) / 2.0)
                batch.append(point_for(config, app, spec, settings))
            plan.append((i, mid, spec))
        results = iter(run_points(batch))
        for i, mid, spec in plan:
            r = next(results)
            spec_r = next(results) if spec is not None else None
            if _passes(r, thresholds[i]):
                lows[i] = mid
            else:
                highs[i] = mid
            remaining[i] -= 1
            if spec_r is not None and remaining[i] > 0 \
                    and spec == (lows[i] + highs[i]) / 2.0:
                # Prediction was right: the speculative result IS the
                # next level's probe — consume it for free.
                if _passes(spec_r, thresholds[i]):
                    lows[i] = spec
                else:
                    highs[i] = spec
                remaining[i] -= 1
            if remaining[i] <= 0:
                del remaining[i]
    return lows


def max_throughput(config, app, settings: Settings,
                   low: float = 1000.0, high: float = 300_000.0,
                   iterations: int = 8) -> float:
    """Binary search for the largest QoS-compliant per-server load."""
    return max_throughputs([(config, app)], settings, low=low, high=high,
                           iterations=iterations)[0]


def run(apps: Sequence[str] = DEFAULT_APPS,
        settings: Settings = Settings(n_servers=1, duration_s=0.02)
        ) -> Dict[Tuple[str, str], float]:
    """Max QoS-compliant throughput per (system, app) pair."""
    pairs = [(config, social_network_app(app_name))
             for app_name in apps for config in SYSTEMS]
    loads = max_throughputs(pairs, settings)
    return {(config.name, app.name): load
            for (config, app), load in zip(pairs, loads)}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    apps = sorted({app for __, app in results})
    rows = []
    for app in apps:
        um = results[("uManycore", app)]
        rows.append([app, f"{um/1000:.0f}K",
                     f"{um/results[('ScaleOut', app)]:.1f}x",
                     f"{um/results[('ServerClass', app)]:.1f}x"])
    print("Figure 18: max QoS-compliant throughput per server")
    print(format_table(["app", "uManycore", "vs ScaleOut",
                        "vs ServerClass"], rows))
    sc = geomean([results[("uManycore", a)] / results[("ServerClass", a)]
                  for a in apps])
    so = geomean([results[("uManycore", a)] / results[("ScaleOut", a)]
                  for a in apps])
    print(f"\naverage: {sc:.1f}x over ServerClass (paper 15.5x), "
          f"{so:.1f}x over ScaleOut (paper 4.3x)")
