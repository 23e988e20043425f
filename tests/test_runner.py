"""Tests for the parallel cached sweep runner (repro.runner)."""

import json

import pytest

from repro.runner import (ResultCache, SweepPoint, clear_memo,
                          executing, execution, result_from_dict,
                          result_to_dict, run_points)
from repro.systems import SCALEOUT, UMANYCORE, simulate
from repro.telemetry import Tracer
from repro.workloads import SOCIAL_NETWORK_APPS

APP = SOCIAL_NETWORK_APPS["UrlShort"]


def point(config=UMANYCORE, rps=2000.0, seed=3, **kw):
    kw.setdefault("n_servers", 1)
    kw.setdefault("duration_s", 0.004)
    return SweepPoint(config=config, app=APP, rps=rps, seed=seed, **kw)


# ------------------------------------------------------------- cache key

def test_key_is_stable_and_input_sensitive():
    assert point().key() == point().key()
    base = point().key()
    assert point(config=SCALEOUT).key() != base
    assert point(rps=2001.0).key() != base
    assert point(seed=4).key() != base


def test_key_sensitive_to_scheduling_policy_fields():
    """The policy knobs are SystemConfig fields, so they must enter the
    cache fingerprint — a policy change can never hit a stale entry."""
    from dataclasses import replace

    base = point().key()
    assert point(config=replace(UMANYCORE, dispatch="least")).key() != base
    assert point(config=replace(UMANYCORE, rq_policy="srpt")).key() != base
    assert point(config=replace(UMANYCORE, steal="maxload")).key() != base
    assert point(config=replace(UMANYCORE, core_bypass=True)).key() != base


def test_cache_roundtrip_preserves_sched_stats(tmp_path):
    from dataclasses import replace

    p = point(config=replace(UMANYCORE, core_bypass=True))
    result = p.run()
    assert "sched" in result.stats
    assert result.stats["sched"]["bypasses"] > 0
    restored = result_from_dict(result_to_dict(result))
    assert restored.stats["sched"] == result.stats["sched"]
    cache = ResultCache(tmp_path)
    cache.put(p.key(), result)
    assert cache.get(p.key()).as_dict() == result.as_dict()


# ----------------------------------------------------------- round-trip

def run_direct(p):
    return simulate(p.config, p.app, rps_per_server=p.rps,
                    n_servers=p.n_servers, duration_s=p.duration_s,
                    seed=p.seed, warmup_fraction=p.warmup_fraction,
                    arrivals=p.arrivals)


def test_cache_roundtrip_preserves_every_field(tmp_path):
    p = point()
    result = p.run()
    restored = result_from_dict(result_to_dict(result))
    assert restored.as_dict() == result.as_dict()

    cache = ResultCache(tmp_path)
    assert cache.get(p.key()) is None and cache.misses == 1
    assert cache.put(p.key(), result)
    assert len(cache) == 1
    again = cache.get(p.key())
    assert cache.hits == 1
    assert again.as_dict() == result.as_dict()


def test_traced_results_are_not_cacheable(tmp_path):
    p = point()
    traced = simulate(p.config, p.app, rps_per_server=p.rps, n_servers=1,
                      duration_s=p.duration_s, seed=p.seed, tracer=Tracer())
    with pytest.raises(ValueError):
        result_to_dict(traced)
    cache = ResultCache(tmp_path)
    assert cache.put(p.key(), traced) is False
    assert len(cache) == 0


def test_cache_misses_on_config_change(tmp_path):
    cache = ResultCache(tmp_path)
    p = point()
    cache.put(p.key(), p.run())
    assert cache.get(point(config=SCALEOUT).key()) is None
    assert cache.get(point(seed=99).key()) is None
    assert cache.misses == 2 and cache.evicted == 0


def test_corrupted_entry_is_evicted_and_recomputed(tmp_path):
    cache = ResultCache(tmp_path)
    p = point()
    result = p.run()
    cache.put(p.key(), result)

    entry = cache._path(p.key())
    entry.write_text("{not json")
    assert cache.get(p.key()) is None
    assert cache.evicted == 1 and not entry.exists()

    # A healed cache accepts the recomputed entry again.
    cache.put(p.key(), result)
    assert cache.get(p.key()).as_dict() == result.as_dict()


def test_incompatible_schema_is_evicted(tmp_path):
    cache = ResultCache(tmp_path)
    p = point()
    cache.put(p.key(), p.run())
    entry = cache._path(p.key())
    doc = json.loads(entry.read_text())
    doc["schema"] = 999
    entry.write_text(json.dumps(doc))
    assert cache.get(p.key()) is None
    assert cache.evicted == 1


def test_schema4_entry_is_evicted(tmp_path):
    """An entry in the layout before the per-layer counters were folded
    into one ``stats`` mapping is evicted, not misread."""
    cache = ResultCache(tmp_path)
    p = point()
    cache.put(p.key(), p.run())
    entry = cache._path(p.key())
    doc = json.loads(entry.read_text())
    del doc["stats"]
    doc.update(schema=4, fault_stats=None, sched_stats=None, dc_stats=None,
               hybrid_stats=None)
    entry.write_text(json.dumps(doc))
    assert cache.get(p.key()) is None
    assert cache.evicted == 1
    assert not entry.exists()


def test_cache_roundtrip_with_every_layer_on(tmp_path):
    from dataclasses import replace

    from repro.dc import DcConfig
    from repro.faults import FaultSchedule, ResilienceConfig
    from repro.hybrid import HybridConfig

    p = point(config=replace(UMANYCORE, rq_policy="srpt"), n_servers=2,
              duration_s=0.01,
              faults=FaultSchedule().fail_village(0, 1, 2_000_000.0),
              resilience=ResilienceConfig(hedge_delay_ns=300_000.0),
              dc=DcConfig(lb="p2c"), hybrid=HybridConfig())
    result = p.run()
    assert set(result.stats) == {"faults", "sched", "dc", "hybrid"}
    assert result.stats["faults"]["injected"]["injected"] == 1
    restored = result_from_dict(result_to_dict(result))
    assert restored.as_dict() == result.as_dict()
    cache = ResultCache(tmp_path)
    assert cache.put(p.key(), result)
    assert cache.get(p.key()).as_dict() == result.as_dict()


# ------------------------------------------------- execution equivalence

def test_serial_equals_parallel_equals_cached(tmp_path):
    points = [point(rps=r) for r in (1500.0, 2500.0, 3500.0)]
    serial = [run_direct(p) for p in points]

    cache = ResultCache(tmp_path)
    events = []
    cold = run_points(points, jobs=2, cache=cache, progress=events.append,
                      memo=False)
    assert [r.as_dict() for r in cold] == [r.as_dict() for r in serial]
    assert cache.misses == len(points)
    # Progress arrives in completion order; every point reports once.
    assert sorted(e["index"] for e in events) == [0, 1, 2]
    assert all(e["source"] == "run" and e["total"] == 3 for e in events)

    warm = run_points(points, jobs=2, cache=cache, memo=False)
    assert cache.hits == len(points)
    assert [r.as_dict() for r in warm] == [r.as_dict() for r in serial]


def test_resume_runs_only_the_missing_points(tmp_path):
    points = [point(rps=1500.0), point(rps=2500.0)]
    cache = ResultCache(tmp_path)
    # Simulate an interrupted sweep: only the first point was stored.
    cache.put(points[0].key(), points[0].run())

    events = []
    results = run_points(points, jobs=1, cache=cache,
                         progress=events.append, memo=False)
    assert cache.hits == 1 and cache.misses == 1
    sources = {e["index"]: e["source"] for e in events}
    assert sources == {0: "cache", 1: "run"}
    assert [r.as_dict() for r in results] == \
        [run_direct(p).as_dict() for p in points]


# ------------------------------------------------------ execution context

def test_run_points_memoizes_repeats_within_a_batch():
    clear_memo()
    p = point(rps=1800.0)
    a, b = run_points([p, p])
    assert a.as_dict() == b.as_dict()

    events = []
    (c,) = run_points([p], progress=events.append)
    assert events[0]["source"] == "memo"
    assert c.as_dict() == a.as_dict()
    clear_memo()


def test_executing_context_routes_runs_through_the_cache(tmp_path):
    clear_memo()
    p = point(rps=2200.0)
    cache = ResultCache(tmp_path)
    with executing(jobs=1, cache=cache):
        (first,) = run_points([p], memo=False)
        (second,) = run_points([p], memo=False)
    assert cache.misses == 1 and cache.hits == 1
    assert first.as_dict() == second.as_dict()
    assert first.as_dict() == run_direct(p).as_dict()


def test_one_call_serves_memo_cache_and_fresh_points(tmp_path):
    clear_memo()
    memo_p, cache_p, fresh_p = (point(rps=r) for r in (1400.0, 2400.0,
                                                       3400.0))
    cache = ResultCache(tmp_path)
    run_points([memo_p], cache=None)                 # fills the memo only
    cache.put(cache_p.key(), cache_p.run())          # fills the cache only
    events = []
    results = run_points([memo_p, cache_p, fresh_p], jobs=1, cache=cache,
                         progress=events.append)
    assert sorted(e["index"] for e in events) == [0, 1, 2]
    assert {e["index"]: e["source"] for e in events} == \
        {0: "memo", 1: "cache", 2: "run"}
    assert all(e["total"] == 3 for e in events)
    assert cache.hits == 1 and cache.misses == 1
    assert [r.as_dict() for r in results] == \
        [run_direct(p).as_dict() for p in (memo_p, cache_p, fresh_p)]
    clear_memo()


def test_executing_folds_config_and_hybrid_into_direct_points(tmp_path):
    """A SweepPoint built directly (not through ``point_for``, e.g. Fig
    18's QoS calibration) gets the context's overrides, and is keyed
    after them."""
    from dataclasses import replace

    from repro.hybrid import HybridConfig

    p = point(rps=2600.0)
    hybrid = HybridConfig(tol=0.0)
    folded = replace(p, config=replace(UMANYCORE, dispatch="least",
                                       core_bypass=True), hybrid=hybrid)
    cache = ResultCache(tmp_path)
    with executing(cache=cache, config={"dispatch": "least",
                                        "core_bypass": True},
                   hybrid=hybrid):
        (result,) = run_points([p], memo=False)
    assert cache.get(folded.key()) is not None
    assert cache.get(p.key()) is None
    assert result.stats["sched"]["dispatch"] == "least"
    assert "hybrid" in result.stats
    assert result.as_dict() == folded.run().as_dict()


def test_point_with_its_own_hybrid_keeps_it(tmp_path):
    from dataclasses import replace

    from repro.hybrid import HybridConfig

    p = replace(point(rps=2700.0), hybrid=HybridConfig(tol=0.0))
    other = replace(p, hybrid=HybridConfig(tol=0.5))
    cache = ResultCache(tmp_path)
    with executing(cache=cache, hybrid=other.hybrid):
        run_points([p], memo=False)
    assert cache.get(p.key()) is not None
    assert cache.get(other.key()) is None


def test_executing_restores_every_field_when_the_body_raises(tmp_path):
    before = execution()
    snapshot = (before.jobs, before.cache, before.check, before.config,
                before.hybrid)
    with pytest.raises(RuntimeError):
        with executing(jobs=3, cache=ResultCache(tmp_path), check=True,
                       config={"dispatch": "least"}, hybrid=object()):
            ctx = execution()
            assert (ctx.jobs, ctx.check, ctx.config) == \
                (3, True, {"dispatch": "least"})
            assert ctx.cache is not None and ctx.hybrid is not None
            raise RuntimeError("body failed")
    after = execution()
    assert (after.jobs, after.cache, after.check, after.config,
            after.hybrid) == snapshot
