"""Tests for the telemetry subsystem: tracer, metrics, export, breakdown."""

import csv
import json

import pytest

from repro.core.context_switch import HARDWARE_CS, SchedulerDomain
from repro.core.request import RequestRecord
from repro.core.village import Village
from repro.sim.engine import Engine
from repro.systems.cluster import simulate
from repro.systems.configs import SCALEOUT, UMANYCORE
from repro.telemetry import (
    BREAKDOWN_CATEGORIES,
    MetricsRegistry,
    NULL_TRACER,
    Span,
    Tracer,
    aggregate_breakdown,
    chrome_trace,
    format_breakdown,
    per_request_breakdown,
    write_chrome_trace,
    write_spans_csv,
    write_spans_json,
)
from repro.telemetry.breakdown import _sweep
from repro.workloads.deathstar import social_network_app


def _rec(service="svc", segments=(100.0,)):
    return RequestRecord(app_name="app", service=service,
                         segments=list(segments),
                         on_complete=lambda r: None)


# ------------------------------------------------------------------ tracer

def test_null_tracer_is_disabled_noop():
    assert NULL_TRACER.enabled is False
    rec = _rec()
    NULL_TRACER.begin_request(rec, 0.0)
    NULL_TRACER.span("compute", "x", 0.0, 1.0, rec=rec)
    NULL_TRACER.end_request(rec, 1.0)     # all silently ignored


def test_engine_defaults_to_null_tracer():
    assert Engine().tracer is NULL_TRACER


def test_tracer_request_tree_links():
    tr = Tracer()
    root, child = _rec("root"), _rec("child")
    tr.begin_request(root, 0.0)
    tr.begin_request(child, 10.0, parent=root)
    tr.span("compute", "seg", 20.0, 30.0, rec=child)
    tr.end_request(child, 40.0)
    tr.end_request(root, 50.0)
    assert [info.index for info in tr.requests] == [0, 1]
    assert tr.root_of(1) == 0             # child belongs to root's tree
    spans = {(s.category, s.name): s for s in tr.spans}
    child_span = spans[("request", "child")]
    root_span = spans[("request", "root")]
    assert child_span.parent_id == root_span.span_id
    assert root_span.parent_id is None
    compute = spans[("compute", "seg")]
    assert compute.req_index == 1
    assert compute.parent_id == child_span.span_id


def test_tracer_end_request_idempotent_and_rejection():
    tr = Tracer()
    rec = _rec()
    tr.begin_request(rec, 0.0)
    tr.end_request(rec, 5.0, rejected=True)
    tr.end_request(rec, 99.0)             # second end ignored
    (span,) = tr.request_spans()
    assert span.end_ns == 5.0
    assert span.attrs.get("rejected") is True
    assert tr.requests[0].rejected


def test_tracer_span_without_request():
    tr = Tracer()
    tr.span("icn_hop", "a->b", 1.0, 4.0, track="icn", hops=3)
    (span,) = tr.spans
    assert span.req_index is None and span.parent_id is None
    assert span.duration_ns == pytest.approx(3.0)
    assert span.attrs == {"hops": 3}
    assert tr.category_totals() == {"icn_hop": pytest.approx(3.0)}


def test_span_as_dict_roundtrip():
    s = Span(span_id=7, name="n", category="compute", start_ns=1.0,
             end_ns=3.5, track="v0", req_index=2, parent_id=1,
             attrs={"core": 0})
    d = s.as_dict()
    assert d["duration_ns"] == pytest.approx(2.5)
    assert d["attrs"] == {"core": 0}


# ----------------------------------------------------------------- metrics

def test_counter_and_histogram():
    reg = MetricsRegistry()
    c = reg.counter("retries")
    c.inc()
    c.inc(2)
    assert reg.counter("retries").value == 3          # create-or-get
    with pytest.raises(ValueError):
        c.inc(-1)
    h = reg.histogram("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.summary()["count"] == 4
    assert h.percentile(50) == pytest.approx(2.5)
    assert reg.histogram("empty").summary() == {"count": 0}


def test_gauge_sampling_driven_by_engine():
    eng = Engine()
    reg = MetricsRegistry()
    state = {"v": 0.0}
    reg.gauge("depth", lambda: state["v"])
    with pytest.raises(ValueError):
        reg.gauge("depth", lambda: 0.0)               # duplicate name
    # Some sim activity for 1000 ns; gauge changes halfway through.
    eng.schedule(500.0, lambda: state.__setitem__("v", 7.0))
    eng.schedule(1000.0, lambda: None)
    reg.start_sampling(eng, interval_ns=200.0)
    eng.run()
    series = reg.series["depth"]
    assert [t for t, __ in series[:3]] == [200.0, 400.0, 600.0]
    values = dict(series)
    assert values[400.0] == 0.0 and values[600.0] == 7.0
    # Sampler must not keep the drained engine alive forever.
    assert series[-1][0] <= 1200.0
    stats = reg.series_stats("depth")
    assert stats["max"] == 7.0 and stats["samples"] == len(series)


def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        MetricsRegistry().start_sampling(Engine(), 0.0)


def test_closed_registry_keeps_its_data_and_reads_no_gauge():
    eng = Engine()
    reg = MetricsRegistry()
    reg.gauge("b.depth", lambda: 2.0)
    reg.gauge("a.util", lambda: 0.5)
    reg.counter("rejected").inc(3)
    reg.histogram("latency_ns").observe(40.0)
    eng.schedule(500.0, lambda: None)
    reg.start_sampling(eng, interval_ns=200.0)
    eng.run()
    series = {name: list(points) for name, points in reg.series.items()}
    before = reg.as_dict()
    assert before["samples_taken"] == 3

    reg.close()
    assert reg.gauges == ["b.depth", "a.util"]        # registration order
    assert reg.series == series
    assert reg.as_dict() == before
    for call in (lambda: reg.sample_once(eng.now),
                 lambda: reg.start_sampling(eng, interval_ns=200.0),
                 lambda: reg.gauge("c.new", lambda: 0.0)):
        with pytest.raises(RuntimeError, match="closed"):
            call()
    assert reg.as_dict() == before                    # nothing half-done
    reg.close()                                       # a no-op
    assert reg.as_dict() == before
    reg.counter("rejected").inc()                     # data stays writable
    assert reg.as_dict()["counters"]["rejected"] == 4


# ----------------------------------------------------------------- export

def _small_trace():
    tr = Tracer()
    rec = _rec("svc")
    tr.begin_request(rec, 0.0)
    tr.span("compute", "seg0", 100.0, 300.0, rec=rec, track="v0", core=1)
    tr.span("icn_hop", "a->b", 300.0, 350.0, track="icn")
    tr.end_request(rec, 400.0)
    return tr


def test_chrome_trace_structure():
    trace = chrome_trace(_small_trace())
    events = trace["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == 3
    compute = next(e for e in xs if e["cat"] == "compute")
    assert compute["ts"] == pytest.approx(0.1)        # us
    assert compute["dur"] == pytest.approx(0.2)
    assert compute["args"]["core"] == 1
    # Request-attributed spans share the root request's track...
    req = next(e for e in xs if e["cat"] == "request")
    assert compute["tid"] == req["tid"]
    # ...unattributed spans get a component track.
    icn = next(e for e in xs if e["cat"] == "icn_hop")
    assert icn["tid"] != compute["tid"]
    names = {m["args"]["name"] for m in metas if m["name"] == "thread_name"}
    assert {"req0", "icn"} <= names


def test_trace_file_exports(tmp_path):
    tr = _small_trace()
    out = tmp_path / "trace.json"
    n = write_chrome_trace(tr, str(out))
    assert n == 3
    loaded = json.loads(out.read_text())
    assert isinstance(loaded["traceEvents"], list)

    write_spans_json(tr, str(tmp_path / "spans.json"))
    flat = json.loads((tmp_path / "spans.json").read_text())
    assert len(flat) == 3 and flat[0]["category"] in BREAKDOWN_CATEGORIES \
        + ("request",)

    write_spans_csv(tr, str(tmp_path / "spans.csv"))
    with open(tmp_path / "spans.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {r["category"] for r in rows} == {"compute", "icn_hop", "request"}


# --------------------------------------------------------------- breakdown

def test_sweep_priority_attribution():
    # compute [0,4) shadows rq_wait [2,8); residual [8,10) is `other`.
    intervals = [(0.0, 4.0, 0), (2.0, 8.0, 2)]       # 0=compute, 2=rq_wait
    out = _sweep(intervals, 0.0, 10.0)
    assert out[0] == pytest.approx(4.0)
    assert out[2] == pytest.approx(4.0)
    assert out[-1] == pytest.approx(2.0)
    assert sum(out) == pytest.approx(10.0)


def test_sweep_no_spans_is_all_other():
    out = _sweep([], 5.0, 25.0)
    assert out[-1] == pytest.approx(20.0) and sum(out) == pytest.approx(20.0)


def test_breakdown_sums_to_wall_time():
    tr = Tracer()
    rec = _rec()
    tr.begin_request(rec, 0.0)
    tr.span("rq_wait", "v0", 0.0, 50.0, rec=rec)
    tr.span("compute", "seg0", 50.0, 150.0, rec=rec)
    tr.span("storage_rpc", "storage", 150.0, 350.0, rec=rec)
    tr.end_request(rec, 400.0)
    rows = per_request_breakdown(tr)
    assert set(rows) == {0}
    row = rows[0]
    assert row["compute"] == pytest.approx(100.0)
    assert row["rq_wait"] == pytest.approx(50.0)
    assert row["storage_rpc"] == pytest.approx(200.0)
    assert row["other"] == pytest.approx(50.0)
    assert sum(row.values()) == pytest.approx(400.0)

    agg = aggregate_breakdown(tr)
    assert agg["n_requests"] == 1
    assert agg["wall_mean_ns"] == pytest.approx(400.0)
    assert sum(agg["fraction"].values()) == pytest.approx(1.0)
    assert "compute" in format_breakdown(agg)


def test_breakdown_excludes_rejected_and_warmup():
    tr = Tracer()
    early, late, rej = _rec("early"), _rec("late"), _rec("rej")
    tr.begin_request(early, 0.0)
    tr.end_request(early, 100.0)
    tr.begin_request(rej, 50.0)
    tr.end_request(rej, 120.0, rejected=True)
    tr.begin_request(late, 500.0)
    tr.end_request(late, 900.0)
    rows = per_request_breakdown(tr, after_ns=200.0)
    assert len(rows) == 1
    (row,) = rows.values()
    assert sum(row.values()) == pytest.approx(400.0)
    assert aggregate_breakdown(tr, after_ns=5000.0) is None


def test_breakdown_spans_nested_rpc_tree():
    """A child RPC's compute shadows the parent's wait in the sweep."""
    tr = Tracer()
    root, child = _rec("root"), _rec("child")
    tr.begin_request(root, 0.0)
    tr.span("compute", "seg0", 0.0, 100.0, rec=root)
    tr.begin_request(child, 100.0, parent=root)
    tr.span("rq_wait", "v1", 100.0, 150.0, rec=child)
    tr.span("compute", "seg0", 150.0, 250.0, rec=child)
    tr.end_request(child, 300.0)
    tr.end_request(root, 300.0)
    rows = per_request_breakdown(tr)
    assert set(rows) == {0}                # one tree, rooted at request 0
    row = rows[0]
    assert row["compute"] == pytest.approx(200.0)
    assert row["rq_wait"] == pytest.approx(50.0)
    assert row["other"] == pytest.approx(50.0)


# ------------------------------------------------------------ integration

def test_village_emits_rq_wait_under_contention():
    class Exec:
        def segment_time_ns(self, rec, core):
            return 1000.0

        def segment_done(self, rec, village, core):
            village.finish(rec, core)

    eng = Engine()
    tracer = Tracer()
    eng.tracer = tracer
    dom = SchedulerDomain(eng, HARDWARE_CS, 2.0)
    village = Village(eng, 0, 1, dom, Exec(), rq_capacity=8)
    for __ in range(3):
        rec = _rec()
        tracer.begin_request(rec, eng.now)
        village.submit(rec)
    eng.run()
    waits = sorted(s.duration_ns for s in tracer.spans
                   if s.category == "rq_wait")
    assert waits[0] == pytest.approx(0.0)      # first runs immediately
    assert waits[-1] > 0.0                     # later ones queued
    computes = [s for s in tracer.spans if s.category == "compute"]
    assert len(computes) == 3
    assert all(s.duration_ns == pytest.approx(1000.0) for s in computes)


@pytest.mark.parametrize("config", [UMANYCORE, SCALEOUT],
                         ids=lambda c: c.name)
def test_traced_simulation_breakdown_consistent(config):
    """Acceptance: span-derived per-category sums reproduce the run's
    end-to-end latency summary (exactly, by construction)."""
    tracer = Tracer()
    result = simulate(config, social_network_app("UrlShort"),
                      rps_per_server=4000, n_servers=1, duration_s=0.008,
                      seed=3, tracer=tracer)
    assert result.completed > 0
    assert len(tracer.spans) > result.completed
    agg = result.breakdown()
    assert agg is not None
    assert agg["wall_mean_ns"] == pytest.approx(result.summary.mean,
                                                rel=0.05)
    assert sum(agg["mean_ns"].values()) == pytest.approx(
        agg["wall_mean_ns"], rel=1e-9)
    assert agg["mean_ns"]["compute"] > 0


def test_tracing_does_not_perturb_timing():
    """The tracer is a pure observer: same seed, same latencies."""
    app = social_network_app("UrlShort")
    base = simulate(UMANYCORE, app, rps_per_server=3000, n_servers=1,
                    duration_s=0.006, seed=5)
    traced = simulate(UMANYCORE, app, rps_per_server=3000, n_servers=1,
                      duration_s=0.006, seed=5, tracer=Tracer())
    assert base.summary.as_dict() == traced.summary.as_dict()


def test_metrics_wired_into_simulation():
    result = simulate(UMANYCORE, social_network_app("UrlShort"),
                      rps_per_server=3000, n_servers=1, duration_s=0.006,
                      seed=5, metrics_interval_ns=50_000.0)
    assert result.metrics is not None
    d = result.metrics.as_dict()
    assert d["samples_taken"] > 10
    assert "s0.rq_depth" in d["gauges"]
    assert d["gauges"]["s0.utilization"]["max"] > 0
    assert d["histograms"]["latency_ns"]["count"] == result.completed
    assert "metrics" in result.as_dict()
