"""Process-wide execution context and :func:`run_points`, the one
executor of sweep points.

The figure harnesses all funnel their simulations through
:func:`run_points`.  By default it behaves exactly like the historical
serial loop (jobs=1, no disk cache, per-process memoization); entry
points that want parallelism, caching, the sanitizer or a policy /
hybrid override — ``repro experiment``, ``repro sweep`` — open one
:func:`executing` scope and every harness downstream inherits the
setting without signature changes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.cache import ResultCache
from repro.runner.point import SweepPoint
from repro.systems.cluster import RunResult

_UNSET = object()

#: Progress event callback: receives one dict per point with ``index``,
#: ``total``, ``label``, ``source`` ("memo" | "cache" | "run"),
#: ``worker`` and ``seconds``.
ProgressFn = Callable[[dict], None]


@dataclass
class ExecutionContext:
    """How sweep points are executed process-wide.

    Attributes:
        jobs: Worker process count for :func:`run_points` (1 = serial).
        cache: Shared on-disk result cache, or None to disable.
        check: Run every point under the strict invariant sanitizer
            (:mod:`repro.check`); implies no caching or memoization so
            each point is actually verified.
        config: :class:`~repro.systems.configs.SystemConfig` field
            overrides (``dispatch``, ``rq_policy``, ``steal``,
            ``core_bypass``) folded into every point; empty = untouched.
        hybrid: :class:`repro.hybrid.HybridConfig` armed on every point
            that has none of its own; None = fully detailed.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    check: bool = False
    config: Dict[str, object] = field(default_factory=dict)
    hybrid: Optional[object] = None


_context = ExecutionContext()

#: Per-process result memo keyed by point content key.  This preserves
#: the historical behaviour where figures sharing a matrix (14/16/17)
#: simulate each cell once per process even with the disk cache off.
_memo: Dict[str, RunResult] = {}


def execution() -> ExecutionContext:
    """Return the active process-wide execution context."""
    return _context


@contextmanager
def executing(jobs: Optional[int] = None, cache=_UNSET,
              check: Optional[bool] = None,
              config: Optional[Dict[str, object]] = None,
              hybrid: Optional[object] = None):
    """Run a scope under an overridden execution context.

    Every argument left at its default keeps the current setting; all
    five fields are restored on exit, also when the body raises.

    Args:
        jobs: Worker count for the scope.
        cache: Cache for the scope (None disables it).
        check: Sanitizer setting for the scope.
        config: SystemConfig field overrides for every point.
        hybrid: HybridConfig for every point without its own.

    Yields:
        The active :class:`ExecutionContext` inside the scope.
    """
    global _context
    changes = {}
    if jobs is not None:
        changes["jobs"] = max(1, int(jobs))
    if cache is not _UNSET:
        changes["cache"] = cache
    if check is not None:
        changes["check"] = bool(check)
    if config is not None:
        changes["config"] = config
    if hybrid is not None:
        changes["hybrid"] = hybrid
    saved = _context
    _context = replace(saved, **changes)
    try:
        yield _context
    finally:
        _context = saved


def clear_memo() -> None:
    """Drop the per-process result memo (tests and long sessions)."""
    _memo.clear()


def _fold(point: SweepPoint, config: dict, hybrid, check: bool
          ) -> SweepPoint:
    """``point`` with the context's overrides applied (or itself)."""
    changes = {}
    if config:
        changes["config"] = replace(point.config, **config)
    if hybrid is not None and point.hybrid is None:
        changes["hybrid"] = hybrid
    if check and not point.check:
        changes["check"] = True
    return replace(point, **changes) if changes else point


def _run_indexed(item):
    """Pool task: run one (index, point) pair.

    Returns:
        ``(index, RunResult, worker_name, wall_seconds)``; the index
        lets the parent restore submission order.
    """
    from multiprocessing import current_process
    index, point = item
    t0 = time.perf_counter()
    result = point.run()
    return (index, result, current_process().name,
            time.perf_counter() - t0)


def run_points(points: Sequence[SweepPoint],
               jobs: Optional[int] = None,
               cache=_UNSET,
               progress: Optional[ProgressFn] = None,
               memo: bool = True,
               check: Optional[bool] = None) -> List[RunResult]:
    """Execute sweep points under the active (or overridden) context.

    Each point has the context's config and hybrid overrides folded in,
    is keyed once, and is served from the memo, then the disk cache;
    what is left runs in-process when ``jobs <= 1`` or only one point
    is pending, else on a ``spawn`` pool.  Fresh results are written
    back to the cache by the parent, so an interrupted sweep resumes
    from what it already computed.

    Args:
        points: Independent simulation points, in result order.
        jobs: Override the context's worker count for this call.
        cache: Override the context's cache for this call (None
            disables); omit to inherit.
        progress: Optional callback invoked once per point, in
            completion order (see :data:`ProgressFn`).
        memo: Serve and populate the per-process memo (disable to force
            re-execution, e.g. in cache tests).
        check: Run every point under the strict invariant sanitizer;
            None inherits the context setting.  Check runs bypass both
            the disk cache and the memo — serving a stored result would
            skip exactly the verification that was requested.

    Returns:
        One :class:`RunResult` per point, positionally aligned with
        ``points`` regardless of jobs, cache state or completion order.
    """
    ctx = _context
    use_jobs = ctx.jobs if jobs is None else max(1, int(jobs))
    use_cache = ctx.cache if cache is _UNSET else cache
    use_check = ctx.check if check is None else bool(check)
    if use_check:
        use_cache = None
        memo = False
    points = [_fold(p, ctx.config, ctx.hybrid, use_check) for p in points]
    total = len(points)

    def emit(i: int, source: str, worker: str, seconds: float) -> None:
        if progress is not None:
            progress({"index": i, "total": total,
                      "label": points[i].label, "source": source,
                      "worker": worker, "seconds": seconds})

    keys = [p.key() for p in points]
    results: List[Optional[RunResult]] = [None] * total
    pending = []
    for i, key in enumerate(keys):
        if memo and key in _memo:
            results[i] = _memo[key]
            emit(i, "memo", "-", 0.0)
            continue
        if use_cache is not None:
            results[i] = use_cache.get(key)
            if results[i] is not None:
                if memo:
                    _memo[key] = results[i]
                emit(i, "cache", "-", 0.0)
                continue
        pending.append((i, points[i]))

    def finish(i: int, result: RunResult, worker: str,
               seconds: float) -> None:
        results[i] = result
        if use_cache is not None:
            use_cache.put(keys[i], result)
        if memo:
            _memo[keys[i]] = result
        emit(i, "run", worker, seconds)

    if len(pending) <= 1 or use_jobs <= 1:
        for i, point in pending:
            t0 = time.perf_counter()
            finish(i, point.run(), "serial", time.perf_counter() - t0)
    else:
        # Loaded only here, so a serial or fully cached sweep never
        # imports it.  ``spawn`` workers re-import the package and get
        # each point by pickle: nothing depends on forked globals.
        import multiprocessing

        pool_ctx = multiprocessing.get_context("spawn")
        with pool_ctx.Pool(processes=min(use_jobs, len(pending))) as pool:
            for item in pool.imap_unordered(_run_indexed, pending,
                                            chunksize=1):
                finish(*item)
    return results  # type: ignore[return-value]
