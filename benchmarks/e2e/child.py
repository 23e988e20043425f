"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per repeat so every run pays its own
imports and has its own peak RSS::

    python benchmarks/e2e/child.py '{"workload": "steady_hot", "seed": 0,
        "smoke": false, "kind": "untraced", "max_events": 5000000,
        "workdir": "..."}'

``kind`` is ``untraced`` (end-to-end timing), ``traced`` (the per-layer
recorder is on) or ``reference`` (the detailed cells a fast path is
compared against).  Untraced and reference runs run under the
host-speed sampler of ``calibrate.py`` and report their host times both
as measured (``host_*``) and scaled to the nominal host speed; traced
runs time their spans with ``perf_counter`` and are not sampled.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from pathlib import Path
from statistics import fmean
from typing import Callable, Dict, List, Optional

_T0 = time.perf_counter()
# The first imports of repro (and numpy under it) are part of setup_s.
import numpy as np  # noqa: E402
from layers import LayerRecorder  # noqa: E402
from repro.systems.cluster import ClusterSimulation  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from calibrate import NOMINAL_S, SpeedSampler, WorkClock  # noqa: E402

#: Per-cell counters summed over the cells of a run.
_SUMMED = ("icn.messages", "icn.hops", "icn.dropped", "net.nic_dropped",
           "faults.rpc_timeouts", "faults.rpc_retries", "faults.rpc_hedges",
           "faults.wasted_responses", "hybrid.roots_elided", "hybrid.aborts",
           "dc.routed", "dc.scale_ups", "dc.scale_downs",
           "telemetry.samples")


def cell_summary(sim: ClusterSimulation) -> dict:
    """Checks and modelled counters of one finished simulation, read from
    public attributes (so the simulation itself can be freed)."""
    servers = sim.servers
    nets = [s.network for s in servers]
    hybrid, lb, scaler = sim.hybrid, sim.lb, sim.autoscaler
    return {
        "drained": sim.engine.peek_time() is None,
        "events": sim.engine.events_processed,
        "offered": sim.offered,
        "answered": len(sim.recorder) + sim.rejected + sim.failed,
        "utilization": [s.utilization() for s in servers],
        "icn.latency_ns": sum(n.total_latency for n in nets),
        "icn.messages": sum(n.messages_sent for n in nets),
        "icn.hops": sum(n.hops_traversed for n in nets),
        "icn.dropped": sum(n.messages_dropped for n in nets),
        "net.nic_dropped": sum(nic.dropped for s in servers
                               for nic in s.lnics + s.rnics),
        "faults.rpc_timeouts": sum(s.rpc_timeouts for s in servers),
        "faults.rpc_retries": sum(s.rpc_retries for s in servers),
        "faults.rpc_hedges": sum(s.rpc_hedges for s in servers),
        "faults.wasted_responses": sum(s.wasted_responses for s in servers),
        "hybrid.roots_elided": hybrid.roots_elided if hybrid else 0,
        "hybrid.aborts": hybrid.aborts if hybrid else 0,
        "dc.routed": sum(lb.routed) if lb else 0,
        "dc.scale_ups": scaler.scale_ups if scaler else 0,
        "dc.scale_downs": scaler.scale_downs if scaler else 0,
        "telemetry.samples": sim.metrics.samples_taken if sim.metrics else 0,
    }


class Probe:
    """Times every ``ClusterSimulation`` built and run inside the block.

    Construction and ``install_faults`` count as build time, ``run()``
    as run time.  Every ``run()`` gets the ``max_events`` budget, so a
    simulation that never drains stops instead of hanging (its cell
    summary shows an undrained engine).  Only summaries and post-warm-up
    latencies outlive each ``run()``.

    Before each construction the garbage of the cells before it is
    collected, with ``clock`` stopped.  A finished simulation is cyclic
    garbage, so otherwise when it is freed, and with it the peak RSS of
    a run of several cells, would hang on where the collector's
    thresholds happen to fall: one import more or less moved
    ``system_mix`` by 25 MB.
    """

    _METHODS = ("__init__", "install_faults", "run")

    def __init__(self, max_events: int, clock: WorkClock) -> None:
        self.max_events = max_events
        self.clock = clock
        self.cells: List[dict] = []
        self.latencies: List[np.ndarray] = []
        self.build_s = 0.0
        self.run_s = 0.0
        self._saved: Dict[str, Callable] = {}

    def __enter__(self) -> "Probe":
        cls = ClusterSimulation
        self._saved = {name: cls.__dict__[name] for name in self._METHODS}
        init = self._saved["__init__"]
        install_faults = self._saved["install_faults"]
        run = self._saved["run"]
        probe = self
        clock = self.clock

        def timed_init(sim, *args, **kwargs):
            clock.exclude(gc.collect)
            t0 = clock()
            try:
                init(sim, *args, **kwargs)
            finally:
                probe.build_s += clock() - t0

        def timed_install_faults(sim, *args, **kwargs):
            t0 = clock()
            try:
                return install_faults(sim, *args, **kwargs)
            finally:
                probe.build_s += clock() - t0

        def bounded_run(sim, max_events: Optional[int] = None):
            budget = probe.max_events if max_events is None \
                else min(max_events, probe.max_events)
            t0 = clock()
            try:
                result = run(sim, max_events=budget)
            finally:
                probe.run_s += clock() - t0
            probe.cells.append(cell_summary(sim))
            probe.latencies.append(sim.recorder.latencies(result.warmup_ns))
            return result

        cls.__init__ = timed_init
        cls.install_faults = timed_install_faults
        cls.run = bounded_run
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._saved.items():
            setattr(ClusterSimulation, name, original)


def output_digest(results: List) -> str:
    """sha256 of every cell's ``RunResult.as_dict()``, in cell order."""
    doc = json.dumps([r.as_dict() for r in results], sort_keys=True,
                     default=repr)
    return hashlib.sha256(doc.encode()).hexdigest()


def problems_of(cells: List[dict]) -> List[str]:
    """Watchdog and conservation findings over the cells of a run."""
    found = []
    for i, cell in enumerate(cells):
        if not cell["drained"]:
            found.append(f"watchdog: cell {i} not drained after "
                         f"{cell['events']} events")
        elif cell["offered"] != cell["answered"]:
            found.append(f"conservation: cell {i} offered {cell['offered']}"
                         f" != completed+rejected+failed {cell['answered']}")
    return found


def counters(cells: List[dict], outcome: Outcome) -> Dict[str, float]:
    """Modelled counters of the whole run."""
    out: Dict[str, float] = {key: sum(c[key] for c in cells)
                             for key in _SUMMED}
    messages = out["icn.messages"]
    offered = sum(c["offered"] for c in cells)
    out["icn.mean_latency_ns"] = (sum(c["icn.latency_ns"] for c in cells)
                                  / messages if messages else 0.0)
    out["core.utilization"] = fmean(u for c in cells
                                    for u in c["utilization"])
    out["hybrid.elided_frac"] = (out["hybrid.roots_elided"] / offered
                                 if offered else 0.0)
    out.update({"runner.cache_hits": 0, "runner.cache_misses": 0,
                "runner.warm_s": 0.0})
    out.update(outcome.counters)
    return out


def measure(build: Callable[..., Outcome], seed: int, smoke: bool,
            kind: str, max_events: int, workdir: Path,
            clock: WorkClock) -> dict:
    """Build and run one workload under the probe (and the recorder when
    ``kind`` is ``traced``); return its host times as read from
    ``clock``, its outputs and its findings."""
    recorder = LayerRecorder() if kind == "traced" else None
    with ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(recorder)
        probe = stack.enter_context(Probe(max_events, clock))
        t0 = clock()
        outcome = build(seed, smoke, kind == "reference", workdir, clock)
        elapsed_s = clock() - t0
    cells = probe.cells
    events = sum(c["events"] for c in cells)
    problems = problems_of(cells)
    results = outcome.results
    pooled = np.concatenate(probe.latencies)
    out = {
        "ok": not problems,
        "problems": problems,
        "build_s": probe.build_s,
        "host_wall_s": probe.run_s if outcome.pass_s is None
        else outcome.pass_s - probe.build_s,
        "host_elapsed_s": elapsed_s,
        "events": events,
        "digest": output_digest(results),
        "outputs": {
            "p99_us": [r.p99_ns / 1e3 for r in results],
            "pooled_p99_us": (float(np.percentile(pooled, 99)) / 1e3
                              if pooled.size else 0.0),
            "completed": sum(r.completed for r in results),
            "offered": sum(r.offered for r in results),
            "rejected": sum(r.rejected for r in results),
            "failed": sum(r.failed for r in results),
        },
        "counters": counters(cells, outcome),
    }
    if recorder is not None:
        attributed = recorder.total_events()
        if attributed != events:
            out["ok"] = False
            problems.append(f"attribution: layers sum to {attributed} "
                            f"events, engines processed {events}")
        out["layers"] = recorder.report(elapsed_s)
    return out


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    clock = WorkClock()
    # The traced run's spans read perf_counter, so ticks would land in
    # them; it is not sampled and reports host times only.
    sampler = SpeedSampler(clock) if spec["kind"] != "traced" else None
    with sampler or nullcontext():
        try:
            out = measure(WORKLOADS[spec["workload"]], spec["seed"],
                          spec["smoke"], spec["kind"], spec["max_events"],
                          Path(spec["workdir"]), clock)
        except Exception:
            out = {"ok": False, "problems": [traceback.format_exc()],
                   "build_s": 0.0}
    out["import_s"] = IMPORT_S
    out["host_setup_s"] = IMPORT_S + out["build_s"]
    if sampler is not None:
        # The host_* times scaled to the nominal host speed (see
        # calibrate.py).
        out["ref_s"] = sampler.tick_s()
        for key in ("setup_s", "wall_s", "elapsed_s"):
            if "host_" + key in out:
                out[key] = out["host_" + key] * NOMINAL_S / out["ref_s"]
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
