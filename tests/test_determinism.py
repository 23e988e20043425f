"""Determinism regression: same seed => byte-identical results.

The simulation contract is that a run is a pure function of
(config, app, load, seed).  These tests pin that down end to end,
including the telemetry span stream — trace exports must not leak
process-global state (object ids, global counters, wall-clock time).
"""

import json
from dataclasses import replace

from repro.systems.cluster import simulate
from repro.systems.configs import SCALEOUT, UMANYCORE
from repro.telemetry import Tracer, chrome_trace, spans_as_dicts
from repro.workloads.deathstar import social_network_app


def _traced_run(config, seed=7):
    tracer = Tracer()
    result = simulate(config, social_network_app("Text"),
                      rps_per_server=5000, n_servers=2, duration_s=0.005,
                      seed=seed, tracer=tracer)
    return result, tracer


def test_same_seed_identical_summary():
    a, __ = _traced_run(UMANYCORE)
    b, __ = _traced_run(UMANYCORE)
    assert a.summary.as_dict() == b.summary.as_dict()
    assert (a.completed, a.rejected, a.offered) == \
        (b.completed, b.rejected, b.offered)
    assert json.dumps(a.as_dict(), sort_keys=True) == \
        json.dumps(b.as_dict(), sort_keys=True)


def test_same_seed_identical_span_stream():
    __, ta = _traced_run(SCALEOUT)
    __, tb = _traced_run(SCALEOUT)
    assert len(ta.spans) == len(tb.spans)
    # Flat span dump and the Chrome trace must serialize byte-identically
    # even though the two tracers live in one process (request indices are
    # trace-local, never the global RequestRecord counter).
    assert json.dumps(spans_as_dicts(ta)) == json.dumps(spans_as_dicts(tb))
    assert json.dumps(chrome_trace(ta), sort_keys=True) == \
        json.dumps(chrome_trace(tb), sort_keys=True)


def test_different_seed_differs():
    a, __ = _traced_run(UMANYCORE, seed=7)
    b, __ = _traced_run(UMANYCORE, seed=8)
    assert a.summary.as_dict() != b.summary.as_dict()


# ------------------------------------------------- faults stay deterministic

def _faulted_run(seed=7):
    """A run with a village outage and an aggressive resilience policy
    chosen to exercise every recovery path (timeouts, retries, hedges)."""
    from repro.faults import FaultSchedule, ResilienceConfig

    sched = FaultSchedule(detection_ns=50_000.0) \
        .fail_village(0, 1, at_ns=1_000_000.0, recover_at_ns=3_000_000.0) \
        .degrade_village(1, 2, at_ns=500_000.0, factor=6.0)
    policy = ResilienceConfig(timeout_ns=400_000.0, max_retries=3,
                              hedge_delay_ns=250_000.0)
    tracer = Tracer()
    result = simulate(UMANYCORE, social_network_app("Text"),
                      rps_per_server=5000, n_servers=2, duration_s=0.005,
                      seed=seed, tracer=tracer, faults=sched,
                      resilience=policy)
    return result, tracer


def test_same_seed_same_schedule_identical_including_recovery_spans():
    """(config, app, load, seed, schedule) -> byte-identical output, and
    the recovery machinery actually fired (the equality is not vacuous)."""
    a, ta = _faulted_run()
    b, tb = _faulted_run()
    assert json.dumps(a.as_dict(), sort_keys=True) == \
        json.dumps(b.as_dict(), sort_keys=True)
    assert json.dumps(spans_as_dicts(ta)) == json.dumps(spans_as_dicts(tb))
    assert json.dumps(chrome_trace(ta), sort_keys=True) == \
        json.dumps(chrome_trace(tb), sort_keys=True)
    categories = {s.category for s in ta.spans}
    assert {"retry", "hedge", "blackhole_wait"} <= categories
    assert a.stats["faults"]["rpc_retries"] > 0
    assert a.stats["faults"]["rpc_hedges"] > 0


class TestSchedulingPolicies:
    """Determinism of the pluggable repro.sched layer."""

    def test_every_policy_key_ends_with_rq_seq(self):
        """Tie-breaking audit: every registered dequeue policy's key must
        end with the queue's own admission counter, so ties never fall
        through to object identity or insertion races."""
        from repro.core.request import RequestRecord
        from repro.sched.policies import POLICY_NAMES, get_policy

        r = RequestRecord(app_name="app", service="svc",
                          segments=[100.0], on_complete=lambda x: None)
        r._rq_seq = 41
        r.arrival_ns = 7.0
        for name in POLICY_NAMES:
            key = get_policy(name).key(r)
            assert key[-1] == 41, f"{name} key must end with _rq_seq"

    def test_same_seed_identical_with_all_policies_enabled(self):
        """(config, seed) -> byte-identical output holds off the default
        path too: occupancy dispatch, SJF ordering, maxload stealing and
        core bypass all enabled at once."""
        cfg = replace(UMANYCORE, dispatch="least", rq_policy="sjf",
                      steal="maxload", core_bypass=True)
        a, ta = _traced_run(cfg)
        b, tb = _traced_run(cfg)
        assert json.dumps(a.as_dict(), sort_keys=True) == \
            json.dumps(b.as_dict(), sort_keys=True)
        assert json.dumps(spans_as_dicts(ta)) == \
            json.dumps(spans_as_dicts(tb))
        # The equality is not vacuous: the policy layer actually fired.
        assert "sched" in a.stats
        assert a.stats["sched"]["bypasses"] > 0

    def test_random_dispatch_deterministic_per_seed(self):
        cfg = replace(UMANYCORE, dispatch="random")
        a, __ = _traced_run(cfg)
        b, __ = _traced_run(cfg)
        c, __ = _traced_run(cfg, seed=9)
        assert json.dumps(a.as_dict(), sort_keys=True) == \
            json.dumps(b.as_dict(), sort_keys=True)
        assert a.summary.as_dict() != c.summary.as_dict()

    def test_explicit_default_policies_byte_identical_to_implicit(self):
        """Naming the defaults must not perturb the run at all — same
        RNG draws, same spans, same summary (the refactor's
        zero-behaviour-change contract)."""
        explicit = replace(UMANYCORE, dispatch="rr", rq_policy="fcfs",
                           steal="off", core_bypass=False)
        a, ta = _traced_run(UMANYCORE)
        b, tb = _traced_run(explicit)
        assert json.dumps(a.as_dict(), sort_keys=True) == \
            json.dumps(b.as_dict(), sort_keys=True)
        assert json.dumps(spans_as_dicts(ta)) == \
            json.dumps(spans_as_dicts(tb))


def test_empty_fault_schedule_is_byte_identical_to_no_schedule():
    """Zero-overhead default: an empty schedule must not perturb the run
    at all — same RNG draws, same spans, same summary."""
    from repro.faults import FaultSchedule

    plain, t_plain = _traced_run(UMANYCORE)
    t_empty = Tracer()
    empty = simulate(UMANYCORE, social_network_app("Text"),
                     rps_per_server=5000, n_servers=2, duration_s=0.005,
                     seed=7, tracer=t_empty, faults=FaultSchedule())
    assert json.dumps(plain.as_dict(), sort_keys=True) == \
        json.dumps(empty.as_dict(), sort_keys=True)
    assert json.dumps(spans_as_dicts(t_plain)) == \
        json.dumps(spans_as_dicts(t_empty))
