"""Parallel, cached experiment execution.

Every paper figure is a grid of *independent* cluster simulations —
(system x workload x load x seed) points whose results feed one table.
This package is the execution layer for those grids:

* :class:`SweepPoint` describes one unit of work by value;
* :class:`ResultCache` content-addresses results on disk (config +
  workload + fault schedule + seed + code version), making re-runs and
  resumed sweeps near-instant;
* :func:`run_points` is the one executor: it serves points from the
  memo and the cache and fans the rest over spawn-safe
  ``multiprocessing`` workers with deterministic result ordering;
* :func:`executing` sets the process-wide :class:`ExecutionContext`
  (jobs, cache, check, config overrides, hybrid) that every
  :func:`run_points` call inherits, without touching figure code.

The determinism contract: for a fixed point list, the returned results
— and therefore every table formatted from them — are identical for
any ``jobs`` count and any cache state.
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    default_cache_dir,
    result_from_dict,
    result_to_dict,
)
from repro.runner.context import (
    ExecutionContext,
    clear_memo,
    executing,
    execution,
    run_points,
)
from repro.runner.fingerprint import code_version, digest, fingerprint
from repro.runner.point import SweepPoint

__all__ = [
    "CACHE_DIR_ENV",
    "ExecutionContext",
    "ResultCache",
    "SweepPoint",
    "clear_memo",
    "code_version",
    "default_cache_dir",
    "digest",
    "executing",
    "execution",
    "fingerprint",
    "result_from_dict",
    "result_to_dict",
    "run_points",
]
