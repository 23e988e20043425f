"""Measurement utilities: latency recording, throughput/QoS accounting.

The time-series instruments (counters/gauges/histograms with periodic
sampling) live in :mod:`repro.telemetry.metrics` and are re-exported
here so measurement code has one import root; they load on first
access.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.metrics.throughput import ThroughputResult, qos_threshold_ns, qos_violated

if TYPE_CHECKING:
    from repro.telemetry.metrics import (
        Counter, Gauge, Histogram, MetricsRegistry,
    )

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "ThroughputResult",
    "qos_violated",
    "qos_threshold_ns",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.telemetry.metrics": ("Counter", "Gauge", "Histogram",
                                "MetricsRegistry"),
})
