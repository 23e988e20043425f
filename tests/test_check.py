"""Tests for the invariant sanitizer (repro.check)."""

import heapq
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.check import (
    CheckContext,
    CheckError,
    NULL_CHECK,
    check_span_tree,
)
from repro.systems.cluster import simulate
from repro.systems.configs import UMANYCORE
from repro.workloads.deathstar import SOCIAL_NETWORK_APPS

SMALL = replace(UMANYCORE, n_cores=128, n_clusters=8)


def run(check=None, tracer=None, seed=1, **kw):
    kw.setdefault("rps_per_server", 6000)
    kw.setdefault("n_servers", 1)
    kw.setdefault("duration_s", 0.004)
    return simulate(SMALL, SOCIAL_NETWORK_APPS["Text"], seed=seed,
                    check=check, tracer=tracer, **kw)


# ---------------------------------------------------------------- unit level

def test_null_check_is_disabled_and_inert():
    assert not NULL_CHECK.enabled
    NULL_CHECK.clock_advance(5.0, 1.0)          # no-op, never raises
    assert NULL_CHECK.finalize() == []


def test_violation_collection_and_ok():
    check = CheckContext(strict=False)
    assert check.ok
    check.violation("clock", "went backwards", where="engine", time_ns=3.0)
    assert not check.ok
    assert "clock" in str(check.violations[0])
    assert "engine" in str(check.violations[0])


def test_raise_if_violations_lists_each_one():
    check = CheckContext()
    check.violation("a", "first")
    check.violation("b", "second")
    with pytest.raises(CheckError) as err:
        check.raise_if_violations()
    assert "first" in str(err.value) and "second" in str(err.value)


def test_fail_fast_raises_on_first_violation():
    check = CheckContext(fail_fast=True)
    with pytest.raises(CheckError):
        check.violation("clock", "boom")


def test_clock_advance_flags_backwards_motion():
    check = CheckContext(strict=False)
    check.clock_advance(0.0, 10.0)
    assert check.ok
    check.clock_advance(10.0, 4.0)
    assert any(v.category == "clock" for v in check.violations)


def test_report_summarizes_both_outcomes():
    check = CheckContext(strict=False)
    check.clock_advance(0.0, 1.0)
    assert check.report().startswith("ok:")
    check.violation("x", "bad")
    assert check.report().startswith("FAIL")


# ------------------------------------------------------------- span checker

def _info(i, root=None, span_id=None, parent=None, start=0.0, end=10.0):
    return SimpleNamespace(index=i, root_index=root if root is not None
                           else i, span_id=span_id if span_id is not None
                           else i, parent_span_id=parent, service=f"s{i}",
                           start_ns=start, end_ns=end)


def _tracer(infos, spans=()):
    return SimpleNamespace(requests=list(infos), spans=list(spans),
                           enabled=True)


def test_span_tree_clean():
    parent = _info(0, start=0.0, end=100.0)
    child = _info(1, root=0, parent=0, start=10.0, end=90.0)
    assert check_span_tree(_tracer([parent, child])) == []


def test_span_tree_flags_unclosed_root():
    open_root = _info(0, end=None)
    vs = check_span_tree(_tracer([open_root]), require_closed=True)
    assert any("never" in v.message for v in vs)
    assert check_span_tree(_tracer([open_root]), require_closed=False) == []


def test_span_tree_flags_negative_duration_and_bad_parent():
    bad = _info(0, start=50.0, end=10.0)
    orphan = _info(1, root=0, parent=99, start=0.0, end=5.0)
    vs = check_span_tree(_tracer([bad, orphan]))
    messages = " | ".join(v.message for v in vs)
    assert "negative duration" in messages
    assert "unknown parent" in messages


def test_span_tree_strict_nesting_toggle():
    parent = _info(0, start=0.0, end=100.0)
    late = _info(1, root=0, parent=0, start=10.0, end=150.0)
    tr = _tracer([parent, late])
    assert any("outlives" in v.message for v in check_span_tree(tr))
    assert check_span_tree(tr, strict_nesting=False) == []


def test_span_tree_scans_non_request_spans():
    span = SimpleNamespace(span_id=7, category="compute", name="seg",
                           start_ns=20.0, end_ns=5.0)
    vs = check_span_tree(_tracer([], spans=[span]))
    assert any("negative duration" in v.message for v in vs)


# ------------------------------------------------------ request-queue scans

def _rec():
    from repro.core import RequestRecord

    return RequestRecord(app_name="app", service="svc", segments=[1000.0],
                         on_complete=lambda r: None)


def _hole(rq):
    rq._slots.append(None)


def _unindexed_ready(rq):
    rq._ready_heap.clear()


def _ghost(rq):
    from repro.core import RequestStatus

    ghost = _rec()
    ghost.status = RequestStatus.READY
    ghost._rq_soft = False
    ghost._rq_epoch = rq.epoch
    heapq.heappush(rq._ready_heap, ((0,), ghost.req_id, ghost))


def _stale_epoch(rq):
    rq.epoch += 1


def _overfull(rq):
    rq._slots.extend(_rec() for __ in range(rq.capacity))


@pytest.mark.parametrize("seed_fault, message", [
    (None, None),
    (_hole, "hole in live window"),
    (_unindexed_ready, "missing from the ready heap"),
    (_ghost, "holds no slot"),
    (_stale_epoch, "stale-epoch entry"),
    (_overfull, "outside [0, 4]"),
])
def test_rq_structure_check_fires_on_seeded_faults(seed_fault, message):
    """Each structural RQ invariant is seen firing on a queue corrupted
    in exactly that way, and stays quiet on an intact one."""
    from repro.core import RequestQueue

    check = CheckContext(strict=True, sample_every=1)
    rq = RequestQueue(4, name="v0.rq",
                      clock=SimpleNamespace(now=0.0, check=check))
    for __ in range(2):
        rq.enqueue(_rec())
    if seed_fault is None:
        rq.soft_enqueue(_rec())
        check.finalize(drained=False)
        assert check.ok, check.report()
        return
    seed_fault(rq)
    rq.soft_enqueue(_rec())          # one checked queue operation
    check.finalize(drained=False)
    hits = [v for v in check.violations if v.category == "rq-structure"]
    assert any(message in v.message for v in hits), check.violations
    with pytest.raises(CheckError, match="rq-structure"):
        check.raise_if_violations()


# ------------------------------------------------------------- whole-system

def test_checked_clean_run_has_zero_violations():
    check = CheckContext(strict=False)
    run(check=check)
    assert check.ok, "\n".join(str(v) for v in check.violations)
    assert check.stats.checks > 1000
    assert check.stats.structural_scans > 0


def test_checked_traced_run_has_zero_violations():
    from repro.telemetry import Tracer

    check = CheckContext(strict=False)
    run(check=check, tracer=Tracer())
    assert check.ok, "\n".join(str(v) for v in check.violations)


def test_checked_faulted_run_has_zero_violations():
    from repro.check.harness import Trial, run_trial

    check = run_trial(Trial(seed=11, fault_rate=1000.0, trace=True))
    assert check.ok, "\n".join(str(v) for v in check.violations)


def test_checked_policy_run_has_zero_violations():
    """Work stealing, core bypass and non-FCFS ordering all on at once:
    the steal/bypass ledgers must balance under the sanitizer."""
    from repro.check.harness import Trial, run_trial

    check = run_trial(Trial(seed=11, rps=16_000.0, dispatch="least",
                            rq_policy="sjf", steal="maxload",
                            core_bypass=True))
    assert check.ok, "\n".join(str(v) for v in check.violations)
    assert check._bypasses_seen > 0      # the fast path actually fired


def test_checked_policy_faulted_run_has_zero_violations():
    from repro.check.harness import Trial, run_trial

    check = run_trial(Trial(seed=11, rps=16_000.0, fault_rate=1000.0,
                            dispatch="affinity", rq_policy="srpt",
                            steal="first", core_bypass=True))
    assert check.ok, "\n".join(str(v) for v in check.violations)


def test_steal_and_bypass_ledgers_catch_drift():
    """Village steal/bypass counters that drift from the observed hook
    events must be flagged at finalize."""
    from repro.systems.cluster import ClusterSimulation
    from repro.workloads.deathstar import SOCIAL_NETWORK_APPS as APPS

    check = CheckContext(strict=False)
    sim = ClusterSimulation(SMALL, APPS["Text"], rps_per_server=4000,
                            n_servers=1, duration_s=0.002, seed=1,
                            check=check)
    village = sim.servers[0].villages[0]
    village.steals += 1          # drift with no matching rq_steal hook
    village.bypasses += 1        # drift with no matching core_bypass hook
    sim.run()
    assert not check.ok
    messages = [v.message for v in check.violations]
    assert any("steal" in m for m in messages)
    assert any("bypass" in m for m in messages)


def test_check_does_not_perturb_the_simulation():
    """A checked run is byte-identical to an unchecked one."""
    plain = run().as_dict()
    checked = run(check=CheckContext(strict=True)).as_dict()
    assert plain == checked


def test_strict_check_raises_at_drain(monkeypatch):
    """A seeded violation surfaces as CheckError from sim.run()."""
    check = CheckContext(strict=True)
    original = CheckContext.finalize

    def poisoned(self, sim=None, drained=True):
        self.violation("test", "seeded failure")
        return original(self, sim, drained)

    monkeypatch.setattr(CheckContext, "finalize", poisoned)
    with pytest.raises(CheckError, match="seeded failure"):
        run(check=check)


def test_finalize_is_idempotent():
    check = CheckContext(strict=False)
    run(check=check)
    before = list(check.violations)
    assert check.finalize() == before


# ------------------------------------------- rarely-fired hooks, both ways

#: Sixteen one-core villages: a village backs up while its peers idle,
#: so stealing happens at a light load.
ONE_CORE_VILLAGES = replace(UMANYCORE, n_cores=16, cores_per_village=1,
                            cores_per_queue=1, n_clusters=4,
                            work_steal=True)


def _steal_run(check):
    from repro.systems.cluster import ClusterSimulation

    return ClusterSimulation(ONE_CORE_VILLAGES, SOCIAL_NETWORK_APPS["Text"],
                             rps_per_server=20_000, n_servers=1,
                             duration_s=0.003, seed=7, check=check)


def _reject_run(check):
    """RQs of two entries and no NIC overflow buffer: a full RQ turns
    an external request straight into an error response."""
    from repro.systems.cluster import ClusterSimulation

    sim = ClusterSimulation(replace(SMALL, rq_capacity=2),
                            SOCIAL_NETWORK_APPS["Text"],
                            rps_per_server=30_000, n_servers=1,
                            duration_s=0.003, seed=7, check=check)
    for server in sim.servers:
        server.top_nic.buffer_capacity = 0
    return sim


def _abort_run(check):
    """The hybrid fast path commits, then the flash crowd's ramp breaks
    its guard."""
    from repro.hybrid.config import HybridConfig
    from repro.systems.cluster import ClusterSimulation

    fast = HybridConfig(tol=0.5, windows=3, min_samples=5,
                        window_ns=300_000.0, calibration_roots=10)
    return ClusterSimulation(SMALL, SOCIAL_NETWORK_APPS["Text"],
                             rps_per_server=16_000, n_servers=1,
                             duration_s=0.01, seed=7, check=check,
                             arrivals="flash", hybrid=fast)


@pytest.mark.parametrize("build, seen", [
    (_steal_run, lambda check: check._steals_seen),
    (_reject_run, lambda check: check._nic_rejects),
    (_reject_run, lambda check: sum(led.rejected
                                    for led in check._services.values())),
    (_abort_run, lambda check: check._hybrid_aborts),
], ids=["rq_steal", "nic_reject", "ext_rejected", "hybrid_abort"])
def test_rare_hook_fires_in_a_clean_strict_run(build, seen):
    """Each hook fires at least once in a run that strict mode passes."""
    check = CheckContext(strict=True)
    build(check).run()                     # raises on any violation
    assert seen(check) > 0
    assert check.ok


def _seed_steal(sim, status, own_village):
    from repro.core import RequestStatus

    village = sim.servers[0].villages[0]
    rec = _rec()
    rec.status = getattr(RequestStatus, status)
    rec.village = village.village_id if own_village else 1
    sim.check.rq_steal(village, rec)


def _seed_overfull_nic(sim):
    nic = sim.servers[0].top_nic
    nic.buffer_capacity = 1
    nic._buffer.extend([_rec(), _rec()])
    sim.check.nic_reject(nic)


@pytest.mark.parametrize("seed_fault, category, message", [
    (lambda sim: _seed_steal(sim, "RUNNING", False), None, None),
    (lambda sim: _seed_steal(sim, "READY", False), "steal", "not RUNNING"),
    (lambda sim: _seed_steal(sim, "RUNNING", True), "steal",
     "from its own village"),
    (_seed_overfull_nic, "nic-buffer", "overflow buffer holds 2 > "
                                       "capacity 1"),
], ids=["clean-steal", "steal-not-running", "steal-own-village",
        "nic-buffer-overfull"])
def test_steal_and_nic_checks_name_seeded_violations(seed_fault, category,
                                                     message):
    check = CheckContext(strict=True)
    sim = _steal_run(check)
    seed_fault(sim)
    if category is None:
        assert check.ok
        return
    assert [v.category for v in check.violations] == [category]
    with pytest.raises(CheckError, match=message):
        check.raise_if_violations()
