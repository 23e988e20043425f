"""End-to-end latency recording and summarization.

The paper reports average and P99 ("tail") response times, measured
end-to-end from client send to client receive (Section 6), after the
system reaches steady state.  ``LatencyRecorder`` supports a warm-up
cutoff so ramp-up samples can be excluded.

Samples are stored packed, as ``array('d')`` columns (8 bytes a value
rather than a boxed float and a list slot).  Whatever leaves a recorder
is a numpy array that owns its data: an ``array`` whose buffer a live
numpy view still holds raises ``BufferError`` on the next append.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of one run (all times in ns)."""

    count: int
    mean: float
    p50: float
    p99: float
    p999: float
    maximum: float

    @property
    def tail_to_average(self) -> float:
        return self.p99 / self.mean if self.mean > 0 else 0.0

    @property
    def is_empty(self) -> bool:
        """True for the zero-sample sentinel (see :meth:`empty`)."""
        return self.count == 0

    @classmethod
    def empty(cls) -> "LatencySummary":
        """Explicit zero-sample sentinel.

        Windows with no post-warm-up completions are a legitimate
        outcome (hybrid-elided low-load windows, autoscaler drains, a
        warm-up cutoff past the last completion), so summarization
        degrades to this all-zeros summary instead of raising.
        """
        return cls(count=0, mean=0.0, p50=0.0, p99=0.0, p999=0.0,
                   maximum=0.0)

    @classmethod
    def of(cls, lats: np.ndarray) -> "LatencySummary":
        """Summary of the samples in ``lats``; :meth:`empty` when none."""
        if len(lats) == 0:
            return cls.empty()
        return cls(count=len(lats), mean=float(np.mean(lats)),
                   p50=float(np.percentile(lats, 50)),
                   p99=float(np.percentile(lats, 99)),
                   p999=float(np.percentile(lats, 99.9)),
                   maximum=float(np.max(lats)))

    def as_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "p50": self.p50,
                "p99": self.p99, "p999": self.p999, "max": self.maximum}


class LatencyRecorder:
    """Collects (completion_time, latency) samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times = array("d")
        self._latencies = array("d")

    def record(self, completion_ns: float, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self._times.append(completion_ns)
        self._latencies.append(latency_ns)

    def __len__(self) -> int:
        return len(self._latencies)

    def latencies(self, after_ns: float = 0.0) -> np.ndarray:
        """Latency samples completing after the warm-up cutoff (a copy)."""
        if after_ns <= 0:
            return np.array(self._latencies)
        times = np.asarray(self._times)
        lats = np.asarray(self._latencies)
        return lats[times >= after_ns]

    def samples(self) -> "np.ndarray":
        """All ``(completion_ns, latency_ns)`` pairs, shape ``(n, 2)``
        (windowed analyses — e.g. p99-over-time — slice these)."""
        return np.column_stack([self._times, self._latencies]) \
            if self._latencies else np.empty((0, 2))

    def windowed(self, window_ns: float, horizon_ns: float) -> list:
        """Per-window :class:`LatencySummary` list over ``[0, horizon)``.

        Windows bucket by *completion* time with boundaries at
        ``i * window_ns`` (index-computed, never float-accumulated);
        empty windows yield the zero sentinel.
        """
        if window_ns <= 0 or horizon_ns <= 0:
            raise ValueError("window and horizon must be positive")
        n_windows = int(np.ceil(horizon_ns / window_ns))
        times = np.asarray(self._times)
        lats = np.asarray(self._latencies)
        out = []
        for i in range(n_windows):
            left, right = i * window_ns, min((i + 1) * window_ns,
                                             horizon_ns)
            out.append(LatencySummary.of(
                lats[(times >= left) & (times < right)]))
        return out

    def summary(self, after_ns: float = 0.0) -> LatencySummary:
        """Summary of the post-cutoff samples; the
        :meth:`LatencySummary.empty` sentinel when there are none."""
        return LatencySummary.of(self.latencies(after_ns))


def pooled_summary(recorders, after_ns: float = 0.0) -> LatencySummary:
    """Summarize the *pooled raw samples* of several recorders.

    Tail percentiles do not compose: averaging per-server p99s
    understates (or overstates) the cluster-level tail whenever load or
    latency is skewed across servers.  This merges the underlying
    samples and takes percentiles of the pool, which is the
    statistically correct cluster aggregate.
    """
    pools = [r.latencies(after_ns) for r in recorders]
    return LatencySummary.of(
        np.concatenate(pools) if pools else np.asarray([]))
