"""Metrics registry: counters, gauges, histograms, periodic sampling.

The registry is the second half of the telemetry subsystem: where spans
describe *one request's* path, metrics describe *system state over
time* — RQ depths, village utilization, NIC buffer occupancy, ICN link
contention.  Gauges are callables sampled on a fixed simulated-time
interval by a self-rescheduling engine event; the sampler stops
rescheduling once the event heap is otherwise empty, so it never keeps
the engine running.

Gauge readers close over live simulation objects (servers, networks),
so the registry has a lifetime: :meth:`MetricsRegistry.close` drops
every reader and leaves plain data — gauge names, sampled series,
counters and histograms.  ``ClusterSimulation.run`` closes its registry
as soon as the engine stops, so a ``RunResult`` never keeps a finished
simulator alive.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        """Name the counter; the value starts at 0."""
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """A named callable returning the current value of some system state."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        """Bind the gauge name to its reader callable."""
        self.name = name
        self.fn = fn

    def read(self) -> float:
        """Evaluate the gauge's callable now."""
        return float(self.fn())


class Histogram:
    """Stores observations; summarizes to percentiles on demand."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str):
        """Name the histogram; no observations yet."""
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        """A copy of every recorded observation, in arrival order."""
        return list(self._values)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the observations."""
        if not self._values:
            raise ValueError(f"histogram {self.name}: no observations")
        return float(np.percentile(self._values, q))

    def summary(self) -> Dict[str, float]:
        """count/mean/p50/p99/max of the observations ({'count': 0} when
        empty)."""
        if not self._values:
            return {"count": 0}
        arr = np.asarray(self._values)
        return {
            "count": int(arr.size),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max()),
        }


class MetricsRegistry:
    """Create-or-get registry of counters/gauges/histograms plus the
    sampled time series of every gauge.

    Open until :meth:`close`; a closed registry keeps every recorded
    value but reads no gauge again.
    """

    def __init__(self) -> None:
        """Create an empty, open registry."""
        self._counters: Dict[str, Counter] = {}
        #: None once closed; ``series`` keeps the names in order.
        self._gauges: Optional[Dict[str, Gauge]] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: gauge name -> [(sample_time_ns, value)]
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        self.samples_taken = 0

    # ------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        """Create-or-get the counter called ``name``."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Register gauge ``name`` backed by callable ``fn`` (once)."""
        self._require_open("register a gauge")
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        g = self._gauges[name] = Gauge(name, fn)
        self.series[name] = []
        return g

    def histogram(self, name: str) -> Histogram:
        """Create-or-get the histogram called ``name``."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    @property
    def gauges(self) -> Sequence[str]:
        """Registered gauge names, in registration order."""
        return list(self.series)

    # ---------------------------------------------------------- lifetime

    def close(self) -> None:
        """Drop every gauge's reader callable; keep all recorded data.

        Gauge names, ``series``, counters, histograms and
        ``samples_taken`` survive, and counters and histograms stay
        writable.  Afterwards :meth:`sample_once`, :meth:`start_sampling`
        and :meth:`gauge` raise.  Closing a closed registry does nothing.
        """
        self._gauges = None

    def _require_open(self, what: str) -> None:
        if self._gauges is None:
            raise RuntimeError(f"metrics registry is closed: cannot {what}")

    # ---------------------------------------------------------- sampling

    def sample_once(self, now_ns: float) -> None:
        """Read every gauge and append to its time series."""
        self._require_open("sample gauges")
        self.samples_taken += 1
        for name, gauge in self._gauges.items():
            self.series[name].append((now_ns, gauge.read()))

    def start_sampling(self, engine, interval_ns: float) -> None:
        """Sample every ``interval_ns`` of simulated time.

        The tick re-arms itself only while the engine has *other* work
        pending, so a drained simulation terminates naturally.
        """
        self._require_open("start sampling")
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")

        def tick() -> None:
            self.sample_once(engine.now)
            if engine.peek_time() is not None:
                engine.schedule(interval_ns, tick)

        engine.schedule(interval_ns, tick)

    # ----------------------------------------------------------- export

    def series_stats(self, name: str) -> Dict[str, float]:
        """Mean/max over one gauge's sampled series."""
        points = self.series.get(name)
        if not points:
            return {"samples": 0}
        vals = np.asarray([v for __, v in points])
        return {"samples": int(vals.size), "mean": float(vals.mean()),
                "max": float(vals.max())}

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump of every instrument and series stat."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: self.series_stats(n) for n in sorted(self.series)},
            "histograms": {n: h.summary()
                           for n, h in sorted(self._histograms.items())},
            "samples_taken": self.samples_taken,
        }
