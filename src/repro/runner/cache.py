"""Content-addressed on-disk cache of simulation results.

Entries are small JSON documents under ``<root>/<key[:2]>/<key>.json``
where the key is :meth:`repro.runner.point.SweepPoint.key` — a hash of
the point's full configuration *and* the simulator source — so a cache
can never serve a stale result across a code change, and two sweeps
sharing points (e.g. an interrupted run resumed with ``--resume``)
share the work.

Robustness rules:

* writes are atomic (temp file + ``os.replace``), so an interrupted
  sweep never leaves a half-written entry;
* a corrupted or schema-incompatible entry is *evicted* on read (the
  file is deleted and the lookup reported as a miss), so a damaged
  cache heals itself instead of poisoning tables.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.metrics.latency import LatencySummary
from repro.systems.cluster import RunResult

#: Bump when the entry layout changes; mismatched entries are evicted.
SCHEMA = 5

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache directory.

    Returns:
        ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro-sweeps``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-sweeps").expanduser()


def result_to_dict(result: RunResult) -> dict:
    """Serialize a :class:`RunResult` into a cache entry document.

    Args:
        result: An *untraced* run result (``tracer``/``metrics`` unset);
            observers record in-process object graphs that do not
            belong in a content-addressed store.

    Returns:
        A JSON-serializable dict capturing every persisted field.

    Raises:
        ValueError: If the result carries a tracer or metrics registry.
    """
    if result.tracer is not None or result.metrics is not None:
        raise ValueError("traced/metered results are not cacheable")
    return {
        "schema": SCHEMA,
        "system": result.system,
        "app": result.app,
        "rps_per_server": result.rps_per_server,
        "n_servers": result.n_servers,
        "duration_s": result.duration_s,
        "summary": result.summary.as_dict(),
        "completed": result.completed,
        "rejected": result.rejected,
        "offered": result.offered,
        "warmup_ns": result.warmup_ns,
        "failed": result.failed,
        "stats": result.stats,
    }


def result_from_dict(doc: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from a cache entry document.

    Args:
        doc: A dict produced by :func:`result_to_dict`.

    Returns:
        An equivalent ``RunResult`` (``tracer``/``metrics`` are None).

    Raises:
        KeyError: If the document misses a required field.
        ValueError: If the document's schema version is unsupported.
    """
    if doc["schema"] != SCHEMA:
        raise ValueError(f"unsupported cache schema {doc['schema']!r}")
    s = doc["summary"]
    summary = LatencySummary(count=s["count"], mean=s["mean"], p50=s["p50"],
                             p99=s["p99"], p999=s["p999"], maximum=s["max"])
    return RunResult(
        system=doc["system"], app=doc["app"],
        rps_per_server=doc["rps_per_server"], n_servers=doc["n_servers"],
        duration_s=doc["duration_s"], summary=summary,
        completed=doc["completed"], rejected=doc["rejected"],
        offered=doc["offered"], warmup_ns=doc["warmup_ns"],
        failed=doc["failed"], stats=doc["stats"])


class ResultCache:
    """On-disk result store addressed by sweep-point content keys."""

    def __init__(self, root: Optional[os.PathLike] = None):
        """Open (and lazily create) a cache directory.

        Args:
            root: Cache directory; defaults to :func:`default_cache_dir`.
        """
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.evicted = 0

    def _path(self, key: str) -> Path:
        """Entry file for a key (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """Look a point up.

        Args:
            key: A :meth:`SweepPoint.key` digest.

        Returns:
            The cached :class:`RunResult`, or None on a miss.  A
            corrupted or incompatible entry is deleted and counted in
            :attr:`evicted` (the lookup still reports a miss).
        """
        path = self._path(key)
        try:
            doc = json.loads(path.read_text())
            result = result_from_dict(doc)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            path.unlink(missing_ok=True)
            self.evicted += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> bool:
        """Store a result (atomically).

        Args:
            key: The point's content key.
            result: The run result; traced/metered results are skipped.

        Returns:
            True if the entry was written, False if it was skipped.
        """
        try:
            doc = result_to_dict(result)
        except ValueError:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for __ in self.root.glob("*/*.json"))

    def stats(self) -> dict:
        """Hit/miss/eviction counters for this cache handle."""
        return {"hits": self.hits, "misses": self.misses,
                "evicted": self.evicted, "dir": str(self.root)}
