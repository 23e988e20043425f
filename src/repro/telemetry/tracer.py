"""Tracers: the hook API every simulated layer reports through.

* :class:`NullTracer` — the default on every :class:`~repro.sim.engine.
  Engine`.  It is only the ``enabled = False`` flag: instrumentation
  sites guard with ``if tracer.enabled:`` and pay only an attribute
  load + branch when tracing is off, so it is never called.
* :class:`Tracer` — the hook API.  It records spans and per-request
  metadata in memory for export (:mod:`repro.telemetry.export`) and
  analysis (:mod:`repro.telemetry.breakdown`).

Request identity is *trace-local*: the tracer assigns each request a
dense index in ``begin_request`` order.  Global ``req_id`` counters
never leak into the trace, which keeps two same-seed runs byte-identical
even inside one process (the determinism regression contract).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.span import Span


class NullTracer:
    """Disabled tracer: the flag every hook site checks, no hooks."""

    def __init__(self) -> None:
        #: An instance attribute, not a class one: CPython specializes
        #: the load of an instance attribute, and every hook site
        #: guards on this flag.
        self.enabled = False


#: Shared default instance; safe because NullTracer is stateless.
NULL_TRACER = NullTracer()


class _RequestInfo:
    """Trace-local bookkeeping for one request."""

    __slots__ = ("index", "root_index", "span_id", "parent_span_id",
                 "service", "start_ns", "end_ns", "rejected")

    def __init__(self, index: int, root_index: int, span_id: int,
                 parent_span_id: Optional[int], service: str,
                 start_ns: float):
        """Record the identifiers of one traced request."""
        self.index = index
        self.root_index = root_index
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.service = service
        self.start_ns = start_ns
        self.end_ns: Optional[float] = None
        self.rejected = False


class Tracer:
    """Collects spans for one simulation run."""

    def __init__(self) -> None:
        """Start an empty trace."""
        self.enabled = True
        self.spans: List[Span] = []
        self.requests: List[_RequestInfo] = []
        self._by_req_id: Dict[int, _RequestInfo] = {}
        self._next_span_id = 0

    # ------------------------------------------------------------ hooks

    def _new_span_id(self) -> int:
        sid = self._next_span_id
        self._next_span_id += 1
        return sid

    def begin_request(self, rec, now: float, parent=None) -> None:
        """Assign the request a trace-local index and open its span."""
        parent_info = self._by_req_id.get(parent.req_id) \
            if parent is not None else None
        info = _RequestInfo(
            index=len(self.requests),
            root_index=parent_info.root_index if parent_info else
            len(self.requests),
            span_id=self._new_span_id(),
            parent_span_id=parent_info.span_id if parent_info else None,
            service=rec.service,
            start_ns=now)
        self.requests.append(info)
        self._by_req_id[rec.req_id] = info

    def end_request(self, rec, now: float, rejected: bool = False) -> None:
        """Close the request's root span (idempotent per request)."""
        info = self._by_req_id.get(rec.req_id)
        if info is None or info.end_ns is not None:
            return
        info.end_ns = now
        info.rejected = rejected
        attrs: Dict[str, Any] = {"depth": rec.depth}
        if rejected:
            attrs["rejected"] = True
        self.spans.append(Span(
            span_id=info.span_id, name=info.service, category="request",
            start_ns=info.start_ns, end_ns=now,
            track=f"req{info.root_index}", req_index=info.index,
            parent_id=info.parent_span_id, attrs=attrs))

    def span(self, category: str, name: str, start_ns: float, end_ns: float,
             rec=None, track: str = "", **attrs: Any) -> None:
        """Record one completed interval, linked to ``rec`` when given."""
        info = self._by_req_id.get(rec.req_id) if rec is not None else None
        self.spans.append(Span(
            span_id=self._new_span_id(), name=name, category=category,
            start_ns=start_ns, end_ns=end_ns, track=track,
            req_index=info.index if info else None,
            parent_id=info.span_id if info else None, attrs=attrs))

    def span_until_done(self, clock, done: Callable[[], None],
                        category: str, name: str, rec=None,
                        track: str = "", **attrs: Any) -> Callable[[], None]:
        """Wrap ``done`` so it first records a span from now until it runs.

        The span starts at ``clock.now`` when this is called and ends at
        ``clock.now`` when the returned callback fires; the callback
        records the span and then calls ``done``.
        """
        start = clock.now

        def finish() -> None:
            self.span(category, name, start, clock.now, rec=rec,
                      track=track, **attrs)
            done()

        return finish

    # ---------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.spans)

    def root_of(self, req_index: int) -> int:
        """The root request's index for any (possibly nested) request."""
        return self.requests[req_index].root_index

    def request_spans(self) -> List[Span]:
        """The root (category ``request``) spans, in completion order."""
        return [s for s in self.spans if s.category == "request"]

    def category_totals(self) -> Dict[str, float]:
        """Raw summed duration per category (overlaps not removed)."""
        totals: Dict[str, float] = {}
        for s in self.spans:
            totals[s.category] = totals.get(s.category, 0.0) + s.duration_ns
        return totals
