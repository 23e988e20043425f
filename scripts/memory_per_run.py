#!/usr/bin/env python
"""Memory a run keeps: ``RunResult`` bytes and resource queues.

For each end-to-end benchmark workload (``benchmarks/e2e/workloads.py``)
this runs the workload once, in this process, and reports:

* ``retained_kb`` — the bytes its finished ``RunResult`` objects keep
  alive, read with ``tracemalloc`` as the traced size with the results
  held minus the size once they are dropped (each simulation is freed
  before the first reading);
* ``queues`` / ``resources`` — how many ``Resource`` objects (ICN links,
  cores, NIC serialization points) were built and how many of them ever
  held a waiting job, so needed a FIFO queue.

Usage::

    PYTHONPATH=src python scripts/memory_per_run.py [--workload NAME]... [--smoke]

Tracing every allocation slows a run several times over; ``--smoke``
runs the short horizons of the benchmark's smoke mode.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from repro.sim.resource import Resource  # noqa: E402
from repro.systems.cluster import ClusterSimulation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def measure(name: str, smoke: bool) -> dict:
    """Run workload ``name`` once; its retained bytes and queue counts."""
    counts = {"resources": 0, "queues": 0}
    run = ClusterSimulation.run

    def counted_run(sim, *args, **kwargs):
        result = run(sim, *args, **kwargs)
        built = [o for o in gc.get_objects()
                 if isinstance(o, Resource) and o.engine is sim.engine]
        counts["resources"] += len(built)
        counts["queues"] += sum(r.max_queue_len > 0 for r in built)
        return result

    ClusterSimulation.run = counted_run
    gc.collect()
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as workdir:
            outcome = WORKLOADS[name](0, smoke, False, Path(workdir),
                                      time.perf_counter)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del outcome
        gc.collect()
        freed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        ClusterSimulation.run = run
    return {"workload": name, "retained_kb": round((held - freed) / 1024, 1),
            **counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="workload to measure (repeatable; default: all)")
    ap.add_argument("--smoke", action="store_true",
                    help="short horizons (10 ms or less)")
    args = ap.parse_args(argv)
    print(f"{'workload':<18}{'retained_kb':>12}{'queues':>8}"
          f"{'resources':>11}")
    for name in args.workload or list(WORKLOADS):
        row = measure(name, args.smoke)
        print(f"{name:<18}{row['retained_kb']:>12}{row['queues']:>8}"
              f"{row['resources']:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
