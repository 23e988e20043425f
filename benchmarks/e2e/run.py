#!/usr/bin/env python3
"""End-to-end benchmark of the repro simulator (host time, memory, fidelity).

Run from the repository root::

    python benchmarks/e2e/run.py [--workload NAME]... [--repeats N | --seconds S]
                                 [--seed S] [--trace [0|1]] [--json OUT] [--smoke]

Every repeat of every workload runs in a fresh child process
(``child.py``), one at a time.  Without ``--trace`` an invocation makes
the untraced repeats, then one traced run, plus one detailed reference
run for ``flash_hybrid``, and prints every metric of BENCHMARK.json by
name and unit as median / min / max / n.  ``--trace 0`` makes only the
untraced repeats and reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from traced runs paired with untraced
ones.  ``--seconds S`` repeats until S seconds have been used instead
of a fixed ``--repeats``, and keeps each workload well under three
minutes.

Host times are scaled to a nominal host speed measured while each child
runs (``calibrate.py``), which takes the other tenants of a shared host
out of them; the unscaled times are kept in ``--json`` as ``host_*``.

The outputs are checked: every run must drain, conserve requests
(offered == completed + rejected + failed), give the same digest on
every repeat, traced or not, and in traced runs attribute every engine
event to a layer.  A run that raises, exhausts the event budget or the
child timeout, or fails a check counts as failed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
#: Scratch space for the runner cache of ``system_mix``; removed after
#: each child.
WORK = HERE / ".work"

#: Events one simulation may process before the watchdog stops it.
MAX_EVENTS = 5_000_000
#: Host seconds one child may take.
CHILD_TIMEOUT_S = 600.0
#: With ``--seconds``, no child outlives this many seconds after start.
SECONDS_CAP_S = 170.0


def parse_args(argv: Optional[List[str]], names: List[str]
               ) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="End-to-end simulator benchmark (see README.md).")
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--repeats", type=int, default=None,
                   help="repeats per workload (default 5, 2 with --smoke, "
                        "1 with --trace 1)")
    p.add_argument("--seconds", type=float, default=None,
                   help="repeat until this many seconds are used "
                        "(overrides --repeats)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed offset added to each workload's base seed")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                   choices=(0, 1),
                   help="0: end-to-end metrics only; 1 (or bare): "
                        "per-layer metrics only; absent: both")
    p.add_argument("--json", type=Path, default=None,
                   help="write the full report (every run) to this file")
    p.add_argument("--smoke", action="store_true",
                   help="horizons of 10 ms or less, for a quick check")
    args = p.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        p.error("--repeats must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ children

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    # Fixed string hashing: one less source of host-time noise.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, kind: str, args: argparse.Namespace,
              work: Path, deadline: Optional[float]) -> dict:
    """One child run; a crash or timeout comes back as a failed run."""
    timeout = CHILD_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.perf_counter()))
    workdir = Path(tempfile.mkdtemp(dir=work))
    spec = {"workload": workload, "seed": args.seed, "smoke": args.smoke,
            "kind": kind, "max_events": MAX_EVENTS, "workdir": str(workdir)}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout,
            env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "ok": False,
                "problems": [f"watchdog: child exceeded {timeout:.0f} s"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "problems": [
            f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    result["kind"] = kind
    return result


def collect_runs(workload: str, mode: str, has_reference: bool,
                 args: argparse.Namespace, work: Path) -> List[dict]:
    """Every child run one workload needs in this mode, in order."""
    runs: List[dict] = []
    start = time.perf_counter()
    deadline = None if args.seconds is None else start + SECONDS_CAP_S
    if has_reference and mode != "e2e":
        runs.append(run_child(workload, "reference", args, work, deadline))
    kinds = ["untraced", "traced"] if mode == "layers" else ["untraced"]
    repeats = args.repeats or (2 if args.smoke else
                               1 if mode == "layers" else 5)
    done = 0
    while True:
        t0 = time.perf_counter()
        for kind in kinds:
            runs.append(run_child(workload, kind, args, work, deadline))
        done += 1
        now = time.perf_counter()
        if deadline is not None and now >= deadline:
            break
        if args.seconds is None:
            if done >= repeats:
                break
        elif now + (now - t0) > start + args.seconds:
            break
    if mode == "full":
        runs.append(run_child(workload, "traced", args, work, deadline))
    return runs


# -------------------------------------------------------------- aggregation

def check_runs(runs: List[dict]) -> Dict[str, bool]:
    """Cross-run checks; a run that fails one is marked ``ok = False``.

    Every untraced or traced run must give the first good run's digest,
    and every traced run the same per-layer counts.  Only the checks
    that the runs made can exercise are reported.
    """
    same = [r for r in runs if r["ok"] and r["kind"] != "reference"]
    checks = {}
    if same:
        digest = same[0]["digest"]
        untraced = [r for r in same if r["kind"] == "untraced"]
        traced = [r for r in same if r["kind"] == "traced"]
        if len(untraced) > 1:
            checks["deterministic"] = all(r["digest"] == digest
                                          for r in untraced)
        if traced and untraced:
            checks["traced_equals_untraced"] = all(r["digest"] == digest
                                                   for r in traced)
        if len(traced) > 1:
            counts = [{k: v for k, v in r["layers"].items()
                       if k.endswith((".events", ".calls"))}
                      for r in traced]
            checks["layer_counts_repeat"] = all(c == counts[0]
                                                for c in counts)
        for r in same:
            if r["digest"] != digest:
                r["ok"] = False
                r["problems"].append(f"non-deterministic: digest "
                                     f"{r['digest'][:12]} != {digest[:12]}")
    checks["runs_ok"] = all(r["ok"] for r in runs)
    return checks


def summary(values: List[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def workload_metrics(runs: List[dict], has_reference: bool
                     ) -> Dict[str, dict]:
    """Every metric this workload's good runs support, as median/min/max/n dicts."""
    good = [r for r in runs if r["ok"]]
    untraced = [r for r in good if r["kind"] == "untraced"]
    traced = [r for r in good if r["kind"] == "traced"]
    reference = [r for r in good if r["kind"] == "reference"]
    out: Dict[str, dict] = {}
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        if untraced:
            out[key] = summary([r[key] for r in untraced])
    if untraced:
        out["host.ref_s"] = summary([r["ref_s"] for r in untraced])
    if not untraced and not traced:
        return out
    first = (untraced or traced)[0]
    for key, value in first["counters"].items():
        out[key] = summary([value])
    out["sim.events"] = summary([first["events"]])
    if untraced:
        wall = statistics.median(r["wall_s"] for r in untraced)
        out["sim.host_ns_per_event"] = summary(
            [r["wall_s"] / r["events"] * 1e9 for r in untraced])
    if traced:
        for key in traced[0]["layers"]:
            out[key] = summary([r["layers"][key] for r in traced])
        if untraced:
            # Traced runs are not sampled: compare unscaled host times.
            base = statistics.median(r["host_elapsed_s"] for r in untraced)
            out["trace.overhead_x"] = summary(
                [r["host_elapsed_s"] / base for r in traced])
    # Without a fast path (or its reference run) both read 0.
    speedup, err = 0.0, 0.0
    if has_reference and reference and untraced:
        speedup = statistics.median(r["wall_s"] for r in reference) / wall
        p99 = first["outputs"]["pooled_p99_us"]
        p99_ref = reference[0]["outputs"]["pooled_p99_us"]
        err = abs(p99 - p99_ref) / p99_ref * 100.0
    out["hybrid.speedup_x"] = summary([speedup])
    out["hybrid.tail_err_pct"] = summary([err])
    return out


def load_baseline(smoke: bool, seed: int) -> Dict[str, dict]:
    """Seed-commit deterministic outputs for this horizon, at seed 0."""
    if seed != 0 or not BASELINE.exists():
        return {}
    doc = json.loads(BASELINE.read_text())
    return doc["outputs"]["smoke" if smoke else "full"]


def versus_seed(digest: str, seed_outputs: Optional[dict]) -> str:
    """Informational: does this digest match the seed commit's?"""
    if seed_outputs is None:
        return "no seed digest"
    if seed_outputs["digest"] == digest:
        return "matches seed commit"
    return "differs from seed commit"


# ----------------------------------------------------------------- printing

def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(name: str, report: dict, metrics: List[dict],
                   layers: bool) -> None:
    runs = report["runs"]
    kinds = {k: sum(r["kind"] == k for r in runs)
             for k in ("untraced", "traced", "reference")}
    print(f"\n== {name}: " + ", ".join(f"{n} {k}" for k, n in kinds.items()
                                       if n) + " run(s)")
    values = report["metrics"]
    print(f"  {'metric':28s} {'unit':8s} {'median':>12s} {'min':>12s} "
          f"{'max':>12s} {'n':>3s}")
    for m in metrics:
        s = values.get(m["name"])
        if s is None:
            print(f"  {m['name']:28s} {m['unit']:8s} {'(no good run)':>12s}")
            continue
        print(f"  {m['name']:28s} {m['unit']:8s} {fmt(s['median']):>12s} "
              f"{fmt(s['min']):>12s} {fmt(s['max']):>12s} {s['n']:>3d}")
    if layers:
        # Measured but not listed (e.g. runner.warm_s, hybrid.self_s):
        # zero on most workloads, so BENCHMARK.json leaves them out.
        named = {m["name"] for m in metrics}
        extra = {k: s for k, s in values.items()
                 if k not in named and s["median"]}
        if extra:
            print("  also: " + ", ".join(f"{k} {fmt(s['median'])}"
                                         for k, s in sorted(extra.items())))
    out = report.get("outputs")
    if out:
        print(f"  outputs: events {out['events']}, completed "
              f"{out['completed']} / offered {out['offered']}, rejected "
              f"{out['rejected']}, failed {out['failed']}, p99_us "
              + "/".join(f"{p:.1f}" for p in out["p99_us"])
              + f", digest {out['digest'][:16]} ({out['vs_seed_commit']})")
    print("  checks: " + ", ".join(f"{k} {'ok' if v else 'FAILED'}"
                                   for k, v in report["checks"].items()))
    for r in runs:
        for problem in r.get("problems", []):
            print(f"  [{r['kind']}] {problem.strip().splitlines()[-1]}")


# --------------------------------------------------------------------- main

def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"error: run from a repository checkout ({SRC / 'repro'} "
              f"and {SPEC} are required)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import HAS_REFERENCE, WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    spec = json.loads(SPEC.read_text())
    mode = {None: "full", 0: "e2e", 1: "layers"}[args.trace]
    shown = (spec["end_to_end"] if mode != "layers" else []) \
        + (spec["per_layer"] if mode != "e2e" else [])
    names = args.workload or list(WORKLOADS)
    baseline = load_baseline(args.smoke, args.seed)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    reports: Dict[str, dict] = {}
    try:
        for name in names:
            has_ref = name in HAS_REFERENCE
            runs = collect_runs(name, mode, has_ref, args, work)
            checks = check_runs(runs)
            report = {"runs": runs, "checks": checks,
                      "metrics": workload_metrics(runs, has_ref)}
            good = [r for r in runs if r["ok"] and r["kind"] != "reference"]
            if good:
                report["outputs"] = dict(
                    good[0]["outputs"], events=good[0]["events"],
                    digest=good[0]["digest"],
                    vs_seed_commit=versus_seed(good[0]["digest"],
                                               baseline.get(name)))
            reports[name] = report
            print_workload(name, report, shown, layers=mode != "e2e")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    runs = [r for rep in reports.values() for r in rep["runs"]]
    failed = sum(not r["ok"] for r in runs)
    prefix = len(names) > 1
    metrics = {}
    complete = True
    for name, rep in reports.items():
        for m in shown:
            s = rep["metrics"].get(m["name"])
            if s is None:
                complete = False
                continue
            key = f"{name}/{m['name']}" if prefix else m["name"]
            metrics[key] = {"value": s["median"], "unit": m["unit"]}
    correct = failed == 0 and all(all(rep["checks"].values())
                                  for rep in reports.values())
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"mode": mode, "seed": args.seed, "smoke": args.smoke,
             "workloads": reports}, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
