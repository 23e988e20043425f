"""Figure 3: response time vs number of queues in a 1K-core manycore.

Paper setup: DeathStarBench on the 1024-core ScaleOut at 50K RPS
(Poisson), queues from one-per-core (1024) down to one shared queue;
requests assigned to queues randomly; optional work stealing.

Paper result: a U-curve — tail is 4.1x worse with 1024 queues (load
imbalance) and 4.5x worse with 1 queue (synchronization) than with 32
queues; work stealing rescues the many-queues end but adds overhead when
queues are already wide; the average moves much less than the tail.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.core.context_switch import ContextSwitchConfig
from repro.experiments.common import Settings, format_table, point_for
from repro.runner import run_points
from repro.systems.configs import SCALEOUT
from repro.workloads.deathstar import social_network_app

QUEUE_COUNTS = (1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1)

def _queue_lock(cores_per_queue: int) -> ContextSwitchConfig:
    """Per-queue software lock: enqueue/dequeue serialize per queue.

    With a single queue, 1024 cores contend on it (the paper's
    "synchronization overheads"): beyond the base CAS cost, contention
    storms (retry bursts, cache-line ping-pong) hit a fraction of
    operations that grows with the number of cores sharing the lock.
    With one queue per core the lock is idle but load imbalance
    dominates.
    """
    return ContextSwitchConfig(
        f"rq-lock-{cores_per_queue}", save_cycles=64, restore_cycles=64,
        scheduler_op_cycles=3000, centralized=True,
        jitter_prob=8e-6 * cores_per_queue, jitter_ns=400_000.0)


def _config(n_queues: int, work_steal: bool):
    cores_per_queue = 1024 // n_queues
    return replace(
        SCALEOUT, name=f"q{n_queues}{'+steal' if work_steal else ''}",
        cores_per_queue=cores_per_queue, cs=_queue_lock(cores_per_queue),
        per_queue_scheduler=True, coherence_domain_cores=1024,
        sw_rpc_core_ns=0.0, preempt_quantum_ns=0.0, preempt_op_cycles=0.0,
        dispatch="random",              # requests assigned to queues randomly
        state_bytes_per_invocation=64 * 1024,   # isolate queueing from ICN
        steal="first" if work_steal else "off")


def run(rps: float = 50_000, compute_scale: float = 15.0,
        queue_counts: Tuple[int, ...] = QUEUE_COUNTS,
        settings: Settings = Settings(n_servers=1, duration_s=0.05)
        ) -> Dict[Tuple[int, bool], Dict[str, float]]:
    """Average and P99 response time per (queue count, stealing)."""
    app = social_network_app("Text", compute_scale=compute_scale,
                             segment_cv=0.3)
    cells = [(n_queues, steal)
             for steal in (False, True) for n_queues in queue_counts]
    results = run_points([point_for(_config(n_queues, steal), app, rps,
                                    settings)
                          for n_queues, steal in cells])
    return {cell: {"mean_us": r.mean_ns / 1e3, "p99_us": r.p99_ns / 1e3}
            for cell, r in zip(cells, results)}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    rows: List[List[str]] = []
    for n_queues in QUEUE_COUNTS:
        base = results[(n_queues, False)]
        steal = results[(n_queues, True)]
        rows.append([str(n_queues),
                     f"{base['mean_us']:.0f}", f"{base['p99_us']:.0f}",
                     f"{steal['mean_us']:.0f}", f"{steal['p99_us']:.0f}"])
    print("Figure 3: response time (us) vs number of queues, 50K RPS")
    print(format_table(
        ["queues", "avg", "tail", "avg+steal", "tail+steal"], rows))
    best = min(QUEUE_COUNTS,
               key=lambda q: results[(q, False)]["p99_us"])
    many = results[(1024, False)]["p99_us"] / results[(best, False)]["p99_us"]
    one = results[(1, False)]["p99_us"] / results[(best, False)]["p99_us"]
    print(f"\nbest queue count (no stealing): {best} (paper: 32)")
    print(f"tail at 1024 queues vs best: {many:.1f}x (paper: 4.1x)")
    print(f"tail at 1 queue vs best: {one:.1f}x (paper: 4.5x)")
