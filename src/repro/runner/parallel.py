"""Spawn-safe parallel execution of sweep points.

The runner fans independent :class:`~repro.runner.point.SweepPoint`
simulations out over a ``multiprocessing`` pool.  Three properties make
it drop-in for the figure harnesses:

* **Deterministic ordering** — results come back positionally, in the
  order the points were submitted, whatever order workers finish in, so
  a table built from a parallel sweep is byte-identical to a serial one.
* **Spawn safety** — the pool always uses the ``spawn`` start method
  (the strictest one): workers re-import the package and receive each
  point by pickle, so the runner behaves identically on Linux, macOS
  and Windows and never depends on forked globals.
* **Cache integration** — with a :class:`~repro.runner.cache.
  ResultCache` attached, hits are served before the pool spins up and
  fresh results are written back by the parent, so an interrupted sweep
  resumes from what it already computed.

``multiprocessing`` is imported only where a pool is spawned, so a
serial or fully cached sweep never loads it.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.runner.cache import ResultCache
from repro.runner.point import SweepPoint
from repro.systems.cluster import RunResult

#: Progress event callback: receives dicts with ``index``, ``total``,
#: ``label``, ``source`` ("cache" | "run"), ``worker`` and ``seconds``.
ProgressFn = Callable[[dict], None]


def _run_indexed(item):
    """Pool task: run one (index, point) pair.

    Returns:
        ``(index, RunResult, worker_name, wall_seconds)`` — the index
        lets the parent restore submission order; the worker name feeds
        live per-worker progress displays.
    """
    from multiprocessing import current_process
    index, point = item
    t0 = time.perf_counter()
    result = point.run()
    return (index, result, current_process().name,
            time.perf_counter() - t0)


class ParallelRunner:
    """Executes batches of sweep points, optionally in parallel/cached."""

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressFn] = None):
        """Configure an execution strategy.

        Args:
            jobs: Worker process count; ``<= 1`` runs in-process (no
                pool, no pickling) which is also the fallback for
                single-point batches.
            cache: Optional on-disk result cache consulted before and
                updated after execution.
            progress: Optional callback invoked once per completed
                point (cache hits included).
        """
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress

    def _emit(self, index: int, total: int, point: SweepPoint, source: str,
              worker: str, seconds: float) -> None:
        if self.progress is not None:
            self.progress({"index": index, "total": total,
                           "label": point.label, "source": source,
                           "worker": worker, "seconds": seconds})

    def run(self, points: Sequence[SweepPoint]) -> List[RunResult]:
        """Execute every point and return results in submission order.

        Args:
            points: Independent simulation points; order defines the
                order of the returned list.

        Returns:
            One :class:`RunResult` per point, positionally aligned with
            ``points`` regardless of completion order or cache state.
        """
        points = list(points)
        total = len(points)
        results: List[Optional[RunResult]] = [None] * total
        pending: List[tuple] = []
        for i, point in enumerate(points):
            cached = (self.cache.get(point.key())
                      if self.cache is not None else None)
            if cached is not None:
                results[i] = cached
                self._emit(i, total, point, "cache", "-", 0.0)
            else:
                pending.append((i, point))

        if len(pending) <= 1 or self.jobs <= 1:
            for i, point in pending:
                t0 = time.perf_counter()
                results[i] = point.run()
                self._finish(i, total, point, results[i], "serial",
                             time.perf_counter() - t0)
            return results  # type: ignore[return-value]

        import multiprocessing
        ctx = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(pending))
        with ctx.Pool(processes=workers) as pool:
            for index, result, worker, seconds in pool.imap_unordered(
                    _run_indexed, pending, chunksize=1):
                results[index] = result
                self._finish(index, total, points[index], result, worker,
                             seconds)
        return results  # type: ignore[return-value]

    def _finish(self, index: int, total: int, point: SweepPoint,
                result: RunResult, worker: str, seconds: float) -> None:
        if self.cache is not None:
            self.cache.put(point.key(), result)
        self._emit(index, total, point, "run", worker, seconds)
