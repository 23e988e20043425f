"""Telemetry subsystem: request tracing, metrics, export, breakdown.

Spans (:mod:`~repro.telemetry.span`) record where each request's time
goes; the :class:`~repro.telemetry.metrics.MetricsRegistry` samples
system state over time; exporters write Chrome trace-event JSON
(Perfetto-loadable) and flat JSON/CSV; the breakdown module turns a
span stream into the per-category latency decomposition of Figure 15.

Tracing defaults to :data:`~repro.telemetry.tracer.NULL_TRACER` on
every engine — instrumentation sites guard on ``tracer.enabled`` and
cost one attribute load when disabled.  The tracers and spans load
with the package; metrics, export and breakdown load on first access.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.telemetry.span import CATEGORIES, Span
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:
    from repro.telemetry.breakdown import (
        BREAKDOWN_CATEGORIES, aggregate_breakdown, format_breakdown,
        per_request_breakdown,
    )
    from repro.telemetry.export import (
        chrome_trace, spans_as_dicts, write_chrome_trace, write_spans_csv,
        write_spans_json,
    )
    from repro.telemetry.metrics import (
        Counter, Gauge, Histogram, MetricsRegistry,
    )

__all__ = [
    "CATEGORIES",
    "Span",
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "chrome_trace",
    "write_chrome_trace",
    "write_spans_json",
    "write_spans_csv",
    "spans_as_dicts",
    "per_request_breakdown",
    "aggregate_breakdown",
    "format_breakdown",
    "BREAKDOWN_CATEGORIES",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".breakdown": ("BREAKDOWN_CATEGORIES", "aggregate_breakdown",
                   "format_breakdown", "per_request_breakdown"),
    ".export": ("chrome_trace", "spans_as_dicts", "write_chrome_trace",
                "write_spans_csv", "write_spans_json"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
})
