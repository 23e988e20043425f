"""Tests for dequeue policies (FCFS/SRPT) and the M/M/c reference."""

import numpy as np
import pytest

from repro.core import HARDWARE_CS, RequestQueue, RequestRecord, \
    SchedulerDomain, Village
from repro.sched import FCFS_POLICY, SRPT_POLICY, erlang_c, \
    mmc_mean_sojourn, mmc_mean_wait
from repro.sched.policies import DeadlinePolicy, POLICY_NAMES, SjfPolicy, \
    get_policy
from repro.sim import Engine


def rec(segments, service="svc"):
    return RequestRecord(app_name="app", service=service,
                         segments=list(segments),
                         on_complete=lambda r: None)


# ----------------------------------------------------------------- policies

def test_get_policy():
    assert get_policy("fcfs") is FCFS_POLICY
    assert get_policy("srpt") is SRPT_POLICY
    with pytest.raises(ValueError):
        get_policy("lifo")


def test_policy_names_registry():
    assert POLICY_NAMES == ("edf", "fcfs", "sjf", "srpt")


def test_stateful_policies_get_fresh_instances():
    """SJF carries measured-service-time state: sharing an instance
    across runs would break same-seed-same-result."""
    a, b = get_policy("sjf"), get_policy("sjf")
    assert a is not b
    a.observe("svc", 500.0)
    r = rec([100.0])
    r._rq_seq = 0
    assert a.key(r) == (500.0, 0)    # a learned the estimate...
    assert b.key(r) == (0.0, 0)      # ...b did not


def test_sjf_ewma_converges_and_orders_by_service():
    p = SjfPolicy(alpha=0.5)
    p.observe("slow", 1000.0)        # first sample seeds the estimate
    assert p._estimate_ns["slow"] == 1000.0
    p.observe("slow", 2000.0)
    assert p._estimate_ns["slow"] == pytest.approx(1500.0)
    p.observe("fast", 10.0)
    slow_r, fast_r = rec([1.0], service="slow"), rec([1.0], service="fast")
    slow_r._rq_seq, fast_r._rq_seq = 0, 1
    # The historically-fast service sorts first despite arriving later.
    assert p.key(fast_r) < p.key(slow_r)


def test_sjf_unseen_service_sorts_first():
    p = SjfPolicy()
    p.observe("seen", 100.0)
    cold, seen = rec([1.0], service="cold"), rec([1.0], service="seen")
    cold._rq_seq, seen._rq_seq = 5, 0
    assert p.key(cold) < p.key(seen)


def test_sjf_in_rq_serves_measured_short_service_first():
    p = SjfPolicy()
    p.observe("long", 9000.0)
    p.observe("short", 10.0)
    rq = RequestQueue(8, policy=p)
    a, b = rec([1.0], service="long"), rec([1.0], service="short")
    rq.enqueue(a)
    rq.enqueue(b)
    assert rq.dequeue() is b


def test_sjf_rejects_bad_alpha():
    with pytest.raises(ValueError):
        SjfPolicy(alpha=0.0)
    with pytest.raises(ValueError):
        SjfPolicy(alpha=1.5)


def test_edf_orders_by_implied_deadline():
    p = DeadlinePolicy(budget_ns=1000.0)
    early, late = rec([1.0]), rec([1.0])
    early.arrival_ns, late.arrival_ns = 100.0, 500.0
    # `late` was admitted to the RQ first (e.g. a retry) but `early`'s
    # deadline comes first.
    late._rq_seq, early._rq_seq = 0, 1
    assert p.key(early) < p.key(late)


def test_edf_rejects_negative_budget():
    with pytest.raises(ValueError):
        DeadlinePolicy(budget_ns=-1.0)


def test_fcfs_serves_in_arrival_order():
    rq = RequestQueue(8, policy=FCFS_POLICY)
    long_req, short_req = rec([9000.0]), rec([10.0])
    rq.enqueue(long_req)
    rq.enqueue(short_req)
    assert rq.dequeue() is long_req


def test_srpt_serves_shortest_first():
    rq = RequestQueue(8, policy=SRPT_POLICY)
    long_req, short_req = rec([9000.0]), rec([10.0])
    rq.enqueue(long_req)
    rq.enqueue(short_req)
    assert rq.dequeue() is short_req
    assert rq.dequeue() is long_req


def test_srpt_uses_remaining_not_total_work():
    rq = RequestQueue(8, policy=SRPT_POLICY)
    # Request A: 3 segments, 2 already executed -> remaining 100.
    a = rec([5000.0, 5000.0, 100.0])
    a.seg_index = 2
    # Request B: 1 segment of 200 remaining.
    b = rec([200.0])
    rq.enqueue(a)
    rq.enqueue(b)
    got = rq.dequeue()
    assert got is a            # 100 remaining < 200 remaining


def test_srpt_rekeys_on_wakeup():
    rq = RequestQueue(8, policy=SRPT_POLICY)
    a = rec([9000.0, 50.0])
    rq.enqueue(a)
    assert rq.dequeue() is a
    rq.mark_blocked(a)
    a.advance_segment()          # 50 remaining now
    b = rec([100.0])
    rq.enqueue(b)
    rq.mark_ready(a)
    assert rq.dequeue() is a     # 50 < 100


def test_srpt_in_village_reduces_short_request_wait():
    """With one core and a long job queued first, SRPT lets the short
    job jump ahead."""

    class FixedExecutor:
        def __init__(self, engine):
            self.engine = engine

        def segment_time_ns(self, r, core):
            return r.current_segment_instructions

        def segment_done(self, r, village, core):
            village.finish(r, core)

    def run(policy):
        eng = Engine()
        dom = SchedulerDomain(eng, HARDWARE_CS, freq_ghz=2.0)
        village = Village(eng, 0, 1, dom, FixedExecutor(eng),
                          rq_policy=policy)
        finish = {}
        blocker = RequestRecord("app", "svc", [1000.0],
                                on_complete=lambda r: None)
        long_r = RequestRecord("app", "svc", [50_000.0],
                               on_complete=lambda r: finish.setdefault(
                                   "long", eng.now))
        short_r = RequestRecord("app", "svc", [100.0],
                                on_complete=lambda r: finish.setdefault(
                                    "short", eng.now))
        village.submit(blocker)   # occupies the core
        village.submit(long_r)
        village.submit(short_r)
        eng.run()
        return finish

    fcfs = run(FCFS_POLICY)
    srpt = run(SRPT_POLICY)
    assert srpt["short"] < fcfs["short"]
    assert srpt["long"] >= fcfs["long"]


# ----------------------------------------------------------- M/M/c theory

def test_erlang_c_known_values():
    # Single server: Erlang C equals rho.
    assert erlang_c(0.5, 1.0, 1) == pytest.approx(0.5)
    # Overloaded: waits with certainty.
    assert erlang_c(5.0, 1.0, 2) == 1.0
    # Multi-server values of the textbook a**k / k! formula.
    assert erlang_c(2.0, 1.0, 4) == pytest.approx(0.1739130434782608)
    assert erlang_c(50.0, 1.0, 64) == pytest.approx(0.0374514200254933)
    # uManycore scale: the Erlang-B recursion never overflows.
    assert 0.0 < erlang_c(900.0, 1.0, 1024) < 1.0
    assert erlang_c(100.0, 1.0, 200) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        erlang_c(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        erlang_c(0.0, 1.0, 1)


def test_mm1_wait_formula():
    # M/M/1: W_q = rho / (mu - lambda).
    assert mmc_mean_wait(0.5, 1.0, 1) == pytest.approx(1.0)
    assert mmc_mean_sojourn(0.5, 1.0, 1) == pytest.approx(2.0)
    assert mmc_mean_wait(2.0, 1.0, 1) == float("inf")


def test_village_matches_mmc_theory():
    """A 4-core village with exponential single-segment service must match
    the M/M/4 sojourn-time prediction — validating the dispatch path."""

    class ExpExecutor:
        def __init__(self, engine, rng, mean_ns):
            self.engine = engine
            self.rng = rng
            self.mean_ns = mean_ns

        def segment_time_ns(self, r, core):
            return self.rng.exponential(self.mean_ns)

        def segment_done(self, r, village, core):
            village.finish(r, core)

    eng = Engine()
    rng = np.random.default_rng(11)
    servers = 4
    mean_service = 1000.0                     # ns
    arrival_rate = 0.7 * servers / mean_service  # rho = 0.7
    dom = SchedulerDomain(eng, HARDWARE_CS, freq_ghz=1e9)  # ~zero overhead
    village = Village(eng, 0, servers, dom, ExpExecutor(eng, rng,
                                                        mean_service),
                      rq_capacity=1_000_000)
    sojourns = []
    t = 0.0
    for __ in range(30_000):
        t += rng.exponential(1.0 / arrival_rate)
        r = RequestRecord("app", "svc", [1.0],
                          on_complete=lambda rr, a=t: sojourns.append(
                              eng.now - a))
        eng.schedule_at(t, village.submit, r)
    eng.run()
    expected = mmc_mean_sojourn(arrival_rate, 1.0 / mean_service, servers)
    assert np.mean(sojourns) == pytest.approx(expected, rel=0.06)
