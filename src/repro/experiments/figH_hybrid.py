"""Figure H (extension): the analytic steady-state fast path.

Not a paper figure — the question here is about the *simulator*, not
the CPU: how much wall clock does :mod:`repro.hybrid` save, and what
does its answer cost in accuracy?  For each Fig. 14 load level the same
seeds run twice over the reduced-scale μManycore rack: fully detailed,
and with the hybrid fast path armed (detailed warm-up, steady-state
detection, tail calibration, then analytic completions under a
drift/fault guard).

Accuracy is scored on *pooled* raw latencies across the seeds —
tail quantiles do not compose, and single-run p99 estimates at this
mass carry ~10% sampling noise that would drown the signal — and
speedup on summed wall clock.  The points run in-process (never
through the result cache): a cached result has no honest wall clock.

The headline row is the mid load (10K RPS/server): the fast path must
report >=3x speedup with a pooled-p99 error <=5% there.  At the low
load commits come late (fewer roots per window -> longer calibration)
and the speedup is modest; near saturation the elided fraction — and
the payoff — is largest.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.experiments.common import PAPER_LOADS, format_table
from repro.hybrid import HybridConfig
from repro.runner import execution
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import UMANYCORE_128
from repro.workloads.deathstar import social_network_app

#: Reduced-scale server (matches Figures D/F/S; saturates near ~20K
#: RPS for the Text app on one server).
BASE = UMANYCORE_128

APP = "Text"

#: Full-scale settings: long enough past commit (~0.2 s at the mid
#: load) that elision dominates the run, with calibration mass sized
#: for a stable p99 (~2000 roots -> ~2-3% quantile noise pooled over
#: the seeds).
DURATION_S = 0.75
SEEDS: Tuple[int, ...] = (1, 2, 3)
CALIBRATION_ROOTS = 2000

QUICK_DURATION_S = 0.12
QUICK_SEEDS: Tuple[int, ...] = (1,)
QUICK_CALIBRATION_ROOTS = 300

WARMUP_FRACTION = 0.25


def _run_once(rps: float, seed: int, duration_s: float,
              hybrid: Optional[HybridConfig]):
    """One in-process run; returns (sim, wall_seconds)."""
    check = None
    if execution().check:
        from repro.check import CheckContext

        check = CheckContext(strict=True)
    sim = ClusterSimulation(BASE, social_network_app(APP),
                            rps_per_server=rps, n_servers=1,
                            duration_s=duration_s, seed=seed,
                            warmup_fraction=WARMUP_FRACTION,
                            check=check, hybrid=hybrid)
    t0 = time.perf_counter()
    sim.run()
    return sim, time.perf_counter() - t0


def run_load(rps: float, duration_s: float, seeds: Tuple[int, ...],
             calibration_roots: int) -> dict:
    """Detailed-vs-hybrid comparison of one load level, pooled over
    ``seeds``; all latency figures in ns, wall clock in seconds."""
    import numpy as np

    hybrid_cfg = HybridConfig(calibration_roots=calibration_roots)
    warmup_ns = WARMUP_FRACTION * duration_s * 1e9
    det_lat, hyb_lat = [], []
    wall_det = wall_hyb = 0.0
    elided = calls = aborts = 0
    committed_ms = []
    events_det = events_hyb = 0
    for seed in seeds:
        sim_d, w_d = _run_once(rps, seed, duration_s, None)
        sim_h, w_h = _run_once(rps, seed, duration_s, hybrid_cfg)
        wall_det += w_d
        wall_hyb += w_h
        det_lat.append(sim_d.recorder.latencies(warmup_ns))
        hyb_lat.append(sim_h.recorder.latencies(warmup_ns))
        events_det += sim_d.engine.events_processed
        events_hyb += sim_h.engine.events_processed
        hs = sim_h.hybrid.stats()
        elided += hs["roots_elided"]
        calls += hs["calls_elided"]
        aborts += hs["aborts"]
        if hs["committed_at_ns"] is not None:
            committed_ms.append(hs["committed_at_ns"] / 1e6)
    det = np.concatenate(det_lat)
    hyb = np.concatenate(hyb_lat)
    out = {"rps": rps, "samples": len(det),
           "wall_det_s": wall_det, "wall_hyb_s": wall_hyb,
           "speedup": wall_det / wall_hyb if wall_hyb > 0 else 0.0,
           "events_det": events_det, "events_hyb": events_hyb,
           "roots_elided": elided, "calls_elided": calls,
           "aborts": aborts,
           "committed_ms": (sum(committed_ms) / len(committed_ms)
                            if committed_ms else None)}
    for stat, q in (("p50", 50), ("p99", 99)):
        d = float(np.percentile(det, q))
        h = float(np.percentile(hyb, q))
        out[f"det_{stat}"] = d
        out[f"hyb_{stat}"] = h
        out[f"{stat}_err"] = abs(h - d) / d if d > 0 else 0.0
    return out


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    duration = QUICK_DURATION_S if quick else DURATION_S
    seeds = QUICK_SEEDS if quick else SEEDS
    cal = QUICK_CALIBRATION_ROOTS if quick else CALIBRATION_ROOTS
    rows_acc, rows_speed = [], []
    for rps in PAPER_LOADS:
        r = run_load(float(rps), duration, seeds, cal)
        rows_acc.append([
            f"{rps:g}", r["samples"],
            f"{r['det_p50'] / 1e3:.1f}", f"{r['hyb_p50'] / 1e3:.1f}",
            f"{r['p50_err']:.1%}",
            f"{r['det_p99'] / 1e3:.1f}", f"{r['hyb_p99'] / 1e3:.1f}",
            f"{r['p99_err']:.1%}"])
        commit = (f"{r['committed_ms']:.0f}"
                  if r["committed_ms"] is not None else "-")
        rows_speed.append([
            f"{rps:g}", f"{r['wall_det_s']:.2f}", f"{r['wall_hyb_s']:.2f}",
            f"{r['speedup']:.2f}x",
            f"{r['events_det'] / max(1, r['events_hyb']):.2f}x",
            commit, r["roots_elided"], r["calls_elided"], r["aborts"]])

    scale = "quick" if quick else "full"
    print(f"Figure H: hybrid fast path vs detailed simulation "
          f"({APP}, 1 server, {duration:g} s, "
          f"seeds {','.join(str(s) for s in seeds)}, {scale} scale)\n")
    print("Accuracy (latencies pooled across seeds, post-warm-up):\n")
    print(format_table(
        ["rps/server", "samples", "det p50 us", "hyb p50 us", "p50 err",
         "det p99 us", "hyb p99 us", "p99 err"], rows_acc))
    print("\nSpeedup (summed wall clock; events = detailed/hybrid "
          "processed-event ratio):\n")
    print(format_table(
        ["rps/server", "det s", "hyb s", "speedup", "events",
         "commit ms", "roots elided", "calls elided", "aborts"],
        rows_speed))
    print("\nThe fast path pays for itself once the run outlives "
          "detection + calibration: commits land at a load-independent "
          "sample count, so higher loads commit earlier and elide "
          "more.  Accuracy is bounded by calibration mass, not by "
          "elision: the frozen empirical tail carries the calibration "
          "window's quantile noise into every elided sample.")
