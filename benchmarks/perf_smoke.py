#!/usr/bin/env python
"""Perf smoke for the fault-injection/resilience layer.

Runs one fixed mid-load simulation twice — clean, then with a canned
fault schedule + resilience policy — and records wall-time and p99 into
``BENCH_faults.json`` (``--update-baseline``) or checks the measurement
against the committed baseline (``--check``, the CI mode).

Absolute times are host-dependent, so the committed gating number is
the *overhead ratio*: the median, over ``OVERHEAD_PAIRS`` back-to-back
clean/faulted pairs in one process, of each pair's faulted time / clean
time.  Both legs are timed with ``time.process_time()`` (this process's
CPU time, recorded under the historical ``*_wall_s`` keys), so other
load on the host does not stretch one ~0.1 s leg more than the other.
CI fails when the measured ratio regresses more than ``--tolerance``
(default 25%) over the baseline ratio.  The median time of each mode is
still recorded for eyeballing, and p99 is checked exactly — it is
deterministic, so any drift is a behaviour change.

A second leg benchmarks the ``repro.hybrid`` fast path at a longer
horizon into ``BENCH_hybrid.json``: the hybrid/detailed wall ratio must
stay above the committed ``min_speedup`` floor (a same-host ratio, like
the overhead gate), its deterministic outputs are checked exactly, and
``hybrid_equivalence`` enforces the byte-identity contracts (tol=0 and
faulted runs must replay the plain runs event-for-event).

A third leg benchmarks the event-engine hot path at the fig18 mid-sweep
point (~75K RPS) into ``BENCH_engine.json``: deterministic outputs
(events processed, completions, p99) are checked exactly, and the
events/sec must clear a deliberately loose ``min_events_per_sec`` floor
(a catastrophic-regression tripwire).  The leg is timed like the e2e
benchmark (``benchmarks/e2e/calibrate.py``): its repeats read a
``WorkClock`` under one ``SpeedSampler``, and the gated events/sec is
scaled to that benchmark's nominal host speed, so a slow or contended
host does not read as a regression.  The raw events/sec is reported
next to it.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py --check
    PYTHONPATH=src python benchmarks/perf_smoke.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from calibrate import NOMINAL_S, SpeedSampler, WorkClock  # noqa: E402

from repro.faults import FaultSchedule, ResilienceConfig  # noqa: E402
from repro.systems.cluster import ClusterSimulation       # noqa: E402
from repro.systems.configs import UMANYCORE               # noqa: E402
from repro.workloads.deathstar import social_network_app  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_faults.json"
HYBRID_BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_hybrid.json"
ENGINE_BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"

#: Fixed mid-load point: reduced-scale uManycore at ~60% of saturation.
CONFIG = replace(UMANYCORE, n_cores=128, n_clusters=8)
RPS = 15_000.0
DURATION_S = 0.008
SEED = 11
REPEATS = 3
#: Clean/faulted pairs behind the fault-overhead ratio.  Each run is
#: ~0.1 s, so a ratio of two best-of-3 walls moved by host noise alone
#: past the gate about once in 10-15 runs; a median of per-pair ratios
#: does not.
OVERHEAD_PAIRS = 9

#: The hybrid speedup leg needs a run that outlives detection +
#: calibration by a healthy margin, so it gets its own duration.
HYBRID_DURATION_S = 0.15

#: Engine leg: the fig18 mid-sweep load the hot-path rebuild was
#: profiled at (~75K RPS on the reduced-scale config above).
ENGINE_RPS = 75_000.0
ENGINE_DURATION_S = 0.008


def _schedule() -> FaultSchedule:
    """A canned outage mix exercising every injection path."""
    return FaultSchedule(detection_ns=100_000.0) \
        .fail_village(0, 1, at_ns=2e6, recover_at_ns=5e6) \
        .degrade_village(0, 3, at_ns=1e6, factor=4.0, recover_at_ns=6e6) \
        .fail_nic(0, 5, "rnic", at_ns=3e6, recover_at_ns=4e6)


def _run(faulted: bool):
    sim = ClusterSimulation(CONFIG, social_network_app("Text"),
                            rps_per_server=RPS, n_servers=1,
                            duration_s=DURATION_S, seed=SEED)
    if faulted:
        sim.install_faults(_schedule(), ResilienceConfig(
            timeout_ns=600_000.0, max_retries=3,
            hedge_delay_ns=1_000_000.0))
    t0 = time.process_time()
    result = sim.run()
    return time.process_time() - t0, result


def measure() -> dict:
    """Median CPU times and the median per-pair overhead ratio over
    ``OVERHEAD_PAIRS`` clean/faulted pairs (p99 is identical across
    repeats)."""
    clean_walls, faulted_walls = [], []
    clean = faulted = None
    for __ in range(OVERHEAD_PAIRS):
        wall, clean = _run(faulted=False)
        clean_walls.append(wall)
        wall, faulted = _run(faulted=True)
        faulted_walls.append(wall)
    ratios = [f / c for c, f in zip(clean_walls, faulted_walls)]
    return {
        "clean_wall_s": round(statistics.median(clean_walls), 4),
        "faulted_wall_s": round(statistics.median(faulted_walls), 4),
        "overhead_ratio": round(statistics.median(ratios), 4),
        "clean_p99_us": round(clean.p99_ns / 1e3, 3),
        "faulted_p99_us": round(faulted.p99_ns / 1e3, 3),
        "faulted_completed": faulted.completed,
        "faulted_retries": int(faulted.stats["faults"]["rpc_retries"]),
    }


def runner_equivalence() -> list:
    """Check the repro.runner path against direct simulation.

    Runs the benchmark's clean and faulted points through a jobs=2
    :func:`~repro.runner.run_points` twice (cold, then warm from the
    cache it just filled; memo off) and compares every ``as_dict``
    field with direct in-process runs.

    Returns:
        A list of failure strings (empty when equivalent).
    """
    import tempfile

    from repro.runner import ResultCache, SweepPoint, run_points

    app = social_network_app("Text")
    points = [
        SweepPoint(config=CONFIG, app=app, rps=RPS, n_servers=1,
                   duration_s=DURATION_S, seed=SEED),
        SweepPoint(config=CONFIG, app=app, rps=RPS, n_servers=1,
                   duration_s=DURATION_S, seed=SEED, faults=_schedule(),
                   resilience=ResilienceConfig(
                       timeout_ns=600_000.0, max_retries=3,
                       hedge_delay_ns=1_000_000.0)),
    ]
    direct = [_run(faulted=False)[1].as_dict(),
              _run(faulted=True)[1].as_dict()]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        for label in ("parallel", "warm-cache"):
            results = run_points(points, jobs=2, cache=cache, memo=False)
            if [r.as_dict() for r in results] != direct:
                failures.append(f"runner {label} results diverge from "
                                f"direct simulation")
    return failures


def policy_equivalence() -> list:
    """Check that naming the default scheduling policies explicitly is
    byte-identical to leaving them implicit (the repro.sched refactor's
    zero-behaviour-change contract).

    Returns:
        A list of failure strings (empty when equivalent).
    """
    explicit = replace(CONFIG, dispatch="rr", rq_policy="fcfs",
                       steal="off", core_bypass=False)
    failures = []
    for faulted in (False, True):
        sim = ClusterSimulation(explicit, social_network_app("Text"),
                                rps_per_server=RPS, n_servers=1,
                                duration_s=DURATION_S, seed=SEED)
        if faulted:
            sim.install_faults(_schedule(), ResilienceConfig(
                timeout_ns=600_000.0, max_retries=3,
                hedge_delay_ns=1_000_000.0))
        got = sim.run().as_dict()
        want = _run(faulted=faulted)[1].as_dict()
        if got != want:
            mode = "faulted" if faulted else "clean"
            failures.append(f"explicit default policies diverge from "
                            f"implicit defaults ({mode} run)")
    return failures


def dc_equivalence() -> list:
    """Check the datacenter tier's zero-behaviour-change contract.

    A ``DcConfig(lb="rr")`` run at one server routes every arrival
    through the front-end LB, but the arrival stream, dispatch order and
    timing must replay the plain single-server path byte-for-byte — the
    only allowed difference is the extra ``dc`` stats block.

    Returns:
        A list of failure strings (empty when equivalent).
    """
    from repro.dc import DcConfig

    sim = ClusterSimulation(CONFIG, social_network_app("Text"),
                            rps_per_server=RPS, n_servers=1,
                            duration_s=DURATION_S, seed=SEED,
                            dc=DcConfig(lb="rr"))
    got = sim.run().as_dict()
    failures = []
    if got.pop("dc", None) is None:
        failures.append("dc-mode run is missing its dc stats block")
    if got != _run(faulted=False)[1].as_dict():
        failures.append("dc-mode (lb=rr, 1 server) diverges from the "
                        "plain single-server path")
    return failures


def _hybrid_run(duration_s: float, hybrid):
    sim = ClusterSimulation(CONFIG, social_network_app("Text"),
                            rps_per_server=RPS, n_servers=1,
                            duration_s=duration_s, seed=SEED,
                            hybrid=hybrid)
    t0 = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - t0, result


def hybrid_equivalence() -> list:
    """Check the hybrid fast path's byte-identity contracts.

    * ``tol=0`` can never converge, so an armed-but-idle hybrid run
      must reproduce the plain run exactly (modulo its stats block).
    * A faulted run must never commit (the structural guard sees the
      injector) and must reproduce the faulted plain run exactly.

    Returns:
        A list of failure strings (empty when equivalent).
    """
    from repro.hybrid import HybridConfig

    failures = []
    got = _hybrid_run(DURATION_S, HybridConfig(tol=0.0))[1].as_dict()
    stats = got.pop("hybrid", None)
    if stats is None:
        failures.append("tol=0 hybrid run is missing its stats block")
    elif stats["commits"] or stats["roots_elided"]:
        failures.append("tol=0 hybrid run committed/elided "
                        "(the never-converge contract is broken)")
    if got != _run(faulted=False)[1].as_dict():
        failures.append("tol=0 hybrid run diverges from the plain run")

    sim = ClusterSimulation(CONFIG, social_network_app("Text"),
                            rps_per_server=RPS, n_servers=1,
                            duration_s=DURATION_S, seed=SEED,
                            hybrid=HybridConfig())
    sim.install_faults(_schedule(), ResilienceConfig(
        timeout_ns=600_000.0, max_retries=3,
        hedge_delay_ns=1_000_000.0))
    got = sim.run().as_dict()
    stats = got.pop("hybrid", None)
    if stats is None:
        failures.append("faulted hybrid run is missing its stats block")
    elif stats["commits"] or stats["roots_elided"]:
        failures.append("faulted hybrid run committed past the "
                        "structural guard")
    if got != _run(faulted=True)[1].as_dict():
        failures.append("faulted hybrid run diverges from the faulted "
                        "plain run")
    return failures


def measure_hybrid() -> dict:
    """Best-of-N walls for the hybrid speedup leg (default tolerance,
    longer horizon); deterministic fields come from the last run."""
    from repro.hybrid import HybridConfig

    det_walls, hyb_walls = [], []
    det = hyb = None
    for __ in range(REPEATS):
        wall, det = _hybrid_run(HYBRID_DURATION_S, None)
        det_walls.append(wall)
        wall, hyb = _hybrid_run(HYBRID_DURATION_S, HybridConfig())
        hyb_walls.append(wall)
    stats = hyb.stats["hybrid"]
    return {
        "detailed_wall_s": round(min(det_walls), 4),
        "hybrid_wall_s": round(min(hyb_walls), 4),
        "speedup": round(min(det_walls) / min(hyb_walls), 4),
        "detailed_p99_us": round(det.p99_ns / 1e3, 3),
        "hybrid_p99_us": round(hyb.p99_ns / 1e3, 3),
        "roots_elided": stats["roots_elided"],
        "calls_elided": stats["calls_elided"],
        "aborts": stats["aborts"],
    }


def _engine_run(clock: WorkClock):
    """One engine-leg run, timed on ``clock``.

    Returns:
        ``(wall_s, events_processed, result)``.
    """
    sim = ClusterSimulation(CONFIG, social_network_app("Text"),
                            rps_per_server=ENGINE_RPS, n_servers=1,
                            duration_s=ENGINE_DURATION_S, seed=SEED)
    t0 = clock()
    result = sim.run()
    wall = clock() - t0
    return wall, sim.engine.events_processed, result


def measure_engine() -> dict:
    """Mean wall of the engine leg's repeats, raw and scaled.

    The repeats run under one :class:`SpeedSampler`; ``ref_s`` is its
    mean tick, and the ``scaled_*`` fields are the raw ones at the
    nominal host speed (``wall * NOMINAL_S / ref_s``), as the e2e
    benchmark scales its host times.
    """
    clock = WorkClock()
    walls = []
    events = result = None
    with SpeedSampler(clock) as sampler:
        for __ in range(REPEATS):
            wall, events, result = _engine_run(clock)
            walls.append(wall)
        ref_s = sampler.tick_s()
    wall = statistics.fmean(walls)
    scaled_wall = wall * NOMINAL_S / ref_s
    return {
        "wall_s": round(wall, 4),
        "ref_s": round(ref_s, 5),
        "scaled_wall_s": round(scaled_wall, 4),
        "events_processed": events,
        "events_per_sec": int(events / wall),
        "scaled_events_per_sec": int(events / scaled_wall),
        "completed": result.completed,
        "p99_us": round(result.p99_ns / 1e3, 3),
    }


def main() -> int:
    """Entry point; returns the process exit code."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare against the committed baseline (CI)")
    mode.add_argument("--update-baseline", action="store_true",
                      help="rewrite BENCH_faults.json with this host's "
                           "measurement")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed overhead-ratio regression (default 0.25)")
    args = ap.parse_args()

    measured = measure()
    print("measured:", json.dumps(measured, indent=2))
    hybrid = measure_hybrid()
    print("hybrid:", json.dumps(hybrid, indent=2))
    engine = measure_engine()
    print("engine:", json.dumps(engine, indent=2))

    if args.update_baseline:
        doc = {
            "schema": 1,
            "bench": "faults_mid_load_smoke",
            "workload": {"system": CONFIG.name, "n_cores": CONFIG.n_cores,
                         "rps_per_server": RPS, "duration_s": DURATION_S,
                         "seed": SEED, "pairs": OVERHEAD_PAIRS},
            "baseline": measured,
            "tolerance": {"overhead_ratio_regression": args.tolerance},
        }
        BASELINE_PATH.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        hdoc = {
            "schema": 1,
            "bench": "hybrid_speedup_smoke",
            "workload": {"system": CONFIG.name, "n_cores": CONFIG.n_cores,
                         "rps_per_server": RPS,
                         "duration_s": HYBRID_DURATION_S,
                         "seed": SEED, "repeats": REPEATS},
            "baseline": hybrid,
            "gate": {"min_speedup": 3.0},
        }
        HYBRID_BASELINE_PATH.write_text(json.dumps(hdoc, indent=2) + "\n")
        print(f"hybrid baseline written to {HYBRID_BASELINE_PATH}")
        edoc = {
            "schema": 1,
            "bench": "engine_hot_path_smoke",
            "workload": {"system": CONFIG.name, "n_cores": CONFIG.n_cores,
                         "rps_per_server": ENGINE_RPS,
                         "duration_s": ENGINE_DURATION_S,
                         "seed": SEED, "repeats": REPEATS},
            "baseline": engine,
            # Floor = a third of the baseline's scaled throughput (ev/s
            # at the nominal host speed): loose enough for host noise
            # the scaling misses, tight enough to trip on a hot-path
            # regression that re-introduces per-event Python overhead
            # wholesale.
            "gate": {"min_events_per_sec":
                     engine["scaled_events_per_sec"] // 3},
            "reference": {
                "pre_rebuild_events_per_sec": 116_000,
                "note": "same point at the PR base commit on the "
                        "baseline host (see docs/PERFORMANCE.md)",
            },
        }
        ENGINE_BASELINE_PATH.write_text(json.dumps(edoc, indent=2) + "\n")
        print(f"engine baseline written to {ENGINE_BASELINE_PATH}")
        return 0

    doc = json.loads(BASELINE_PATH.read_text())
    base = doc["baseline"]
    tol = doc["tolerance"]["overhead_ratio_regression"]
    failures = (runner_equivalence() + policy_equivalence()
                + dc_equivalence() + hybrid_equivalence())
    limit = base["overhead_ratio"] * (1.0 + tol)
    if measured["overhead_ratio"] > limit:
        failures.append(
            f"fault-mode overhead (CPU time) regressed: "
            f"{measured['overhead_ratio']:.3f}x > "
            f"{limit:.3f}x allowed ({base['overhead_ratio']:.3f}x "
            f"baseline + {tol:.0%})")
    for key in ("clean_p99_us", "faulted_p99_us", "faulted_completed",
                "faulted_retries"):
        if measured[key] != base[key]:
            failures.append(f"deterministic output drifted: {key} "
                            f"{measured[key]} != baseline {base[key]}")
    hdoc = json.loads(HYBRID_BASELINE_PATH.read_text())
    hbase = hdoc["baseline"]
    min_speedup = hdoc["gate"]["min_speedup"]
    if hybrid["speedup"] < min_speedup:
        failures.append(
            f"hybrid fast-path speedup regressed: "
            f"{hybrid['speedup']:.2f}x < {min_speedup:.1f}x required")
    for key in ("detailed_p99_us", "hybrid_p99_us", "roots_elided",
                "calls_elided", "aborts"):
        if hybrid[key] != hbase[key]:
            failures.append(f"deterministic hybrid output drifted: {key} "
                            f"{hybrid[key]} != baseline {hbase[key]}")
    edoc = json.loads(ENGINE_BASELINE_PATH.read_text())
    ebase = edoc["baseline"]
    floor = edoc["gate"]["min_events_per_sec"]
    if engine["scaled_events_per_sec"] < floor:
        failures.append(
            f"engine throughput collapsed: "
            f"{engine['scaled_events_per_sec']} scaled ev/s < {floor} "
            f"scaled ev/s floor (baseline: "
            f"{ebase['scaled_events_per_sec']} scaled ev/s)")
    for key in ("events_processed", "completed", "p99_us"):
        if engine[key] != ebase[key]:
            failures.append(f"deterministic engine output drifted: {key} "
                            f"{engine[key]} != baseline {ebase[key]}")
    if failures:
        print("PERF SMOKE FAILED")
        for f in failures:
            print(" -", f)
        return 1
    print(f"perf smoke OK (overhead {measured['overhead_ratio']:.3f}x, "
          f"limit {limit:.3f}x; hybrid {hybrid['speedup']:.2f}x, "
          f"floor {min_speedup:.1f}x; engine "
          f"{engine['scaled_events_per_sec']} scaled ev/s "
          f"({engine['events_per_sec']} raw), floor {floor} scaled ev/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
