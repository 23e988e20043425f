"""Unit tests for repro.faults: schedules, injection and resilience."""

import json
from dataclasses import replace

import pytest

from repro.core import HARDWARE_CS, RequestQueue, RequestRecord, \
    SchedulerDomain, Village
from repro.faults import FaultEvent, FaultSchedule, ResilienceConfig, \
    fault_inventory, merge
from repro.net import LNic, NicConfig, TopLevelNic
from repro.sim import Engine
from repro.systems.cluster import ClusterSimulation, simulate
from repro.systems.configs import SCALEOUT, SERVERCLASS, UMANYCORE
from repro.workloads.deathstar import social_network_app

SMALL = replace(UMANYCORE, n_cores=128, n_clusters=8)


def rec(service="svc", segments=None):
    return RequestRecord(app_name="app", service=service,
                         segments=segments or [1000.0],
                         on_complete=lambda r: None)


# ---------------------------------------------------------- FaultSchedule


def test_empty_schedule_is_falsy():
    sched = FaultSchedule()
    assert not sched and len(sched) == 0
    sched.fail_village(0, 1, 100.0)
    assert sched and len(sched) == 1


def test_builders_record_fail_and_recover_pairs():
    sched = FaultSchedule() \
        .fail_village(0, 1, 2_000.0, recover_at_ns=5_000.0) \
        .degrade_village(0, 2, 1_000.0, factor=3.0, recover_at_ns=4_000.0) \
        .fail_link(1, "a", "b", 3_000.0) \
        .fail_nic(1, 0, "rnic", 500.0)
    events = sched.events
    assert [e.time_ns for e in events] == sorted(e.time_ns for e in events)
    assert events[0].kind == "nic" and events[0].target == (1, 0, "rnic")
    recover = [e for e in events if e.action == "recover"]
    assert [(e.kind, e.time_ns) for e in recover] == [("village", 5_000.0)]
    # degrade "recovery" is a degrade back to factor 1.0
    undegrade = [e for e in events
                 if e.action == "degrade" and e.factor == 1.0]
    assert [e.time_ns for e in undegrade] == [4_000.0]


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(0.0, "disk", "fail")              # unknown kind
    with pytest.raises(ValueError):
        FaultEvent(0.0, "village", "explode")        # unknown action
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "village", "fail")          # negative time
    with pytest.raises(ValueError):
        FaultEvent(0.0, "link", "degrade")           # degrade != village
    with pytest.raises(ValueError):
        FaultEvent(0.0, "village", "degrade", factor=0.0)
    with pytest.raises(ValueError):
        FaultSchedule().fail_nic(0, 0, "tnic", 0.0)  # lnic/rnic only


def test_random_schedule_is_seed_deterministic():
    kw = dict(duration_ns=1e7, villages=[(0, v) for v in range(4)],
              links=[(0, "a", "b")], nics=[(0, 0, "lnic")],
              rate_per_s=2_000.0)
    a = FaultSchedule.random(seed=42, **kw)
    b = FaultSchedule.random(seed=42, **kw)
    c = FaultSchedule.random(seed=43, **kw)
    assert len(a) > 0
    assert json.dumps(a.as_dicts()) == json.dumps(b.as_dicts())
    assert json.dumps(a.as_dicts()) != json.dumps(c.as_dicts())
    # every fault recovers within the run (mttr capped at duration)
    assert all(e.time_ns <= 1e7 for e in a)


def test_random_schedule_empty_inventory_or_zero_rate():
    assert not FaultSchedule.random(seed=1, duration_ns=1e9)
    assert not FaultSchedule.random(seed=1, duration_ns=1e9,
                                    villages=[(0, 0)], rate_per_s=0.0)


def test_merge_unions_events_and_keeps_first_detection():
    a = FaultSchedule(detection_ns=50_000.0).fail_village(0, 0, 1_000.0)
    b = FaultSchedule(detection_ns=999.0).fail_link(0, "u", "v", 2_000.0)
    m = merge([a, b])
    assert len(m) == 2 and m.detection_ns == 50_000.0
    assert [e.kind for e in m] == ["village", "link"]


def test_describe_lists_every_event():
    sched = FaultSchedule().fail_village(0, 3, 1e6, recover_at_ns=2e6)
    text = sched.describe()
    assert "2 fault events" in text and "village" in text


# --------------------------------------------------- request-queue purge


def test_request_queue_purge_drops_and_bumps_epoch():
    rq = RequestQueue(8)
    a, b = rec(), rec()
    assert rq.enqueue(a) and rq.enqueue(b)
    assert not rq.is_stale(a)
    assert rq.purge() == 2
    assert rq.occupancy == 0
    assert rq.dequeue() is None
    # pre-purge records are stale; post-purge enqueues are not
    assert rq.is_stale(a) and rq.is_stale(b)
    c = rec()
    rq.enqueue(c)
    assert not rq.is_stale(c)
    assert rq.dequeue() is c


# ------------------------------------------------------- NIC health marks


def test_service_map_skips_unhealthy_villages():
    nic = TopLevelNic(Engine())
    nic.register_instance("svc", 3)
    nic.register_instance("svc", 7)
    nic.mark_village_down(3)
    assert not nic.village_healthy(3) and nic.village_healthy(7)
    assert [nic.pick_village("svc") for __ in range(3)] == [7, 7, 7]
    nic.mark_village_down(7)
    with pytest.raises(KeyError):
        nic.pick_village("svc")
    nic.mark_village_up(3)
    assert nic.pick_village("svc") == 3
    assert nic.health_marks == 2


def test_pick_village_exclude_prefers_other_instance():
    nic = TopLevelNic(Engine())
    nic.register_instance("svc", 1)
    nic.register_instance("svc", 2)
    assert all(nic.pick_village("svc", exclude=1) == 2 for __ in range(4))
    # with a single instance, exclude cannot apply
    nic.deregister_instance("svc", 2)
    assert nic.pick_village("svc", exclude=1) == 1


def test_failed_lnic_blackholes_messages():
    eng = Engine()
    nic = LNic(eng, NicConfig())
    done = []
    nic.fail()
    nic.process(512, lambda: done.append(eng.now))
    eng.run()
    assert done == [] and nic.dropped == 1
    nic.recover()
    nic.process(512, lambda: done.append(eng.now))
    eng.run()
    assert len(done) == 1


# ------------------------------------------------------ village failures


class _FixedExecutor:
    """One fixed-length segment per request, no blocking."""

    def __init__(self, segment_ns=100.0):
        self.segment_ns = segment_ns

    def segment_time_ns(self, rec, core):
        return self.segment_ns

    def segment_done(self, rec, village, core):
        village.finish(rec, core)


def make_village(engine, n_cores=2):
    dom = SchedulerDomain(engine, HARDWARE_CS, freq_ghz=2.0)
    return Village(engine, 0, n_cores, dom, _FixedExecutor())


def test_failed_village_blackholes_and_recovers():
    eng = Engine()
    village = make_village(eng)
    village.fail()
    # submit still "succeeds" — the sender cannot tell (detection lag)
    assert village.submit(rec())
    eng.run()
    assert village.completed == 0 and village.blackholed == 1
    village.recover()
    done = []
    village.submit(RequestRecord(app_name="app", service="svc",
                                 segments=[1000.0],
                                 on_complete=lambda r: done.append(eng.now)))
    eng.run()
    assert village.completed == 1 and len(done) == 1


def test_fail_purges_queued_requests():
    eng = Engine()
    village = make_village(eng, n_cores=1)
    for __ in range(4):
        village.submit(rec())
    village.fail()
    eng.run()
    assert village.completed == 0
    assert village.blackholed >= 3          # everything queued was purged


def test_degrade_factor_slows_segments():
    eng = Engine()
    village = make_village(eng)
    done = {}
    village.submit(RequestRecord(app_name="app", service="svc",
                                 segments=[1000.0],
                                 on_complete=lambda r: done.setdefault(
                                     "clean", eng.now)))
    eng.run()
    village.degrade_factor = 4.0
    start = eng.now
    village.submit(RequestRecord(app_name="app", service="svc",
                                 segments=[1000.0],
                                 on_complete=lambda r: done.setdefault(
                                     "slow", eng.now)))
    eng.run()
    assert done["slow"] - start == pytest.approx(4.0 * done["clean"])


def test_failed_core_is_skipped():
    eng = Engine()
    village = make_village(eng, n_cores=2)
    village.cores[0].failed = True
    for __ in range(3):
        village.submit(rec())
    eng.run()
    assert village.completed == 3
    assert village.cores[0].requests_run == 0


# -------------------------------------------------- cluster end-to-end


def _small_sim(**kw):
    return ClusterSimulation(SMALL, social_network_app("Text"),
                             rps_per_server=8_000, n_servers=1,
                             duration_s=0.004, seed=5, **kw)


def test_fault_inventory_enumerates_components():
    sim = _small_sim()
    inv = fault_inventory(sim.servers)
    n_villages = sum(len(s.villages) for s in sim.servers)
    assert len(inv["villages"]) == n_villages
    assert len(inv["nics"]) == 2 * n_villages        # lnic + rnic each
    # links counted once per physical link, all belonging to server 0
    assert inv["links"] and all(t[0] == 0 for t in inv["links"])
    assert all(u < v for (_, u, v) in inv["links"])


@pytest.mark.parametrize("event, names", [
    (FaultEvent(1e6, "village", "fail", (5, 0)), "server 5"),
    (FaultEvent(1e6, "village", "fail", (0, 999)), "village 999"),
    (FaultEvent(1e6, "village", "fail", (0, -1)), "village -1"),
    (FaultEvent(1e6, "village", "fail", (0, "v0")), "not an integer"),
    (FaultEvent(1e6, "core", "fail", (0, 1, 99)), "core 99"),
    (FaultEvent(1e6, "core", "fail", (0, 99, 0)), "village 99"),
    (FaultEvent(1e6, "nic", "fail", (0, 99, "rnic")), "village 99"),
    (FaultEvent(1e6, "nic", "fail", (0, 1, "xnic")), "'xnic'"),
    (FaultEvent(1e6, "link", "fail", (0, "leaf0:0", "nowhere")),
     "'nowhere'"),
    (FaultEvent(1e6, "link", "recover", (0, "leaf0:0")), "3 fields"),
])
def test_bad_fault_targets_are_rejected_at_install(event, names):
    """Every kind of bad target raises at install time, before the
    engine has run a single event, naming the event and the problem."""
    sched = FaultSchedule().add(FaultEvent(1e5, "village", "fail", (0, 1)))
    sched.add(event)
    sim = _small_sim()
    with pytest.raises(ValueError, match=names) as err:
        sim.install_faults(sched)
    assert repr(event.target) in str(err.value)
    assert sim.engine.events_processed == 0
    assert sim.faults is None and sim.injector is None
    assert sim.resilience is None
    assert all(s.resilience is None for s in sim.servers)
    with pytest.raises(ValueError, match=names):
        _small_sim(faults=sched)


def test_constructor_and_install_faults_arm_the_same_run(monkeypatch):
    """Both entry points share one arming path: the same schedule and
    policy give the same run.  The constructor does not go through the
    public ``install_faults``, which callers may wrap or time on its own."""
    sched = FaultSchedule().fail_village(0, 1, at_ns=1e6, recover_at_ns=2e6)
    policy = ResilienceConfig(timeout_ns=500_000.0)
    late = _small_sim()
    late.install_faults(sched, policy)

    def not_called(*args, **kwargs):
        raise AssertionError("constructor called install_faults")

    monkeypatch.setattr(ClusterSimulation, "install_faults", not_called)
    early = _small_sim(faults=sched, resilience=policy)
    assert early.resilience is policy and early.injector is not None
    assert early.run().as_dict() == late.run().as_dict()


def test_install_faults_none_disarms_an_earlier_schedule():
    """A later ``install_faults(None)`` replaces the schedule and its
    injector; the resilience policy the first call armed stays."""
    sched = FaultSchedule().fail_village(0, 1, at_ns=1e6)
    policy = ResilienceConfig(timeout_ns=500_000.0)
    sim = _small_sim()
    sim.install_faults(sched, policy)
    sim.install_faults(None)
    assert sim.faults is None and sim.injector is None
    assert sim.resilience is policy
    assert all(s.resilience is policy for s in sim.servers)
    assert sim.run().stats["faults"]["injected"] is None


def test_village_failure_triggers_timeout_retry_and_health_marks():
    sched = FaultSchedule(detection_ns=50_000.0) \
        .fail_village(0, 1, at_ns=1e6, recover_at_ns=3e6)
    sim = _small_sim(faults=sched,
                     resilience=ResilienceConfig(timeout_ns=500_000.0,
                                                 max_retries=4))
    result = sim.run()
    fs = result.stats["faults"]
    assert fs["injected"]["injected"] == 2
    assert fs["rpc_timeouts"] > 0
    assert fs["rpc_retries"] > 0
    assert fs["health_marks"] == 1           # one down-mark (up is silent)
    assert result.completed > 0
    assert 0.0 < result.availability <= 1.0


def test_hedging_counts_and_wasted_responses():
    sim = _small_sim(faults=FaultSchedule().degrade_village(
        0, 0, at_ns=0.0, factor=8.0),
        resilience=ResilienceConfig(timeout_ns=5e6, max_retries=1,
                                    hedge_delay_ns=200_000.0))
    result = sim.run()
    fs = result.stats["faults"]
    assert fs["rpc_hedges"] > 0
    # both attempts eventually answer; the loser is counted as wasted
    assert fs["wasted_responses"] > 0
    assert result.completed > 0


def test_core_outage_idles_the_village_and_recovery_kicks_it(monkeypatch):
    """Every core of one village fails for a window: no segment starts on
    a failed core, the village's queue backs up, the recovery event
    kicks the village into running it, and the run drains with every
    request accounted for."""
    from repro.check import CheckContext

    fail_ns, recover_ns, target = 1e6, 2e6, 1
    n_cores = SMALL.cores_per_village
    sched = FaultSchedule()
    for core in range(n_cores):
        sched.fail_core(0, target, core, fail_ns, recover_at_ns=recover_ns)
    starts, kicks = [], []
    execute, kick = Village._execute, Village._kick

    def logged_execute(village, core, rec):
        starts.append((village.engine.now, village.village_id,
                       core.failed))
        execute(village, core, rec)

    def logged_kick(village):
        kick(village)
        if village.village_id == target:
            kicks.append((village.engine.now,
                          sum(c.busy for c in village.cores)))

    monkeypatch.setattr(Village, "_execute", logged_execute)
    monkeypatch.setattr(Village, "_kick", logged_kick)
    check = CheckContext(strict=True)
    sim = _small_sim(faults=sched, check=check)
    backlog = []
    sim.engine.schedule_at(recover_ns - 1.0, lambda: backlog.append(
        sim.servers[0].villages[target].rq.occupancy))
    result = sim.run()                     # strict: raises on violations

    assert sim.engine.peek_time() is None  # drained, so strict balanced it
    injected = result.stats["faults"]["injected"]
    assert injected["by_kind"] == {"core": 2 * n_cores}
    assert not any(failed for __, __, failed in starts)
    assert backlog == [2]                  # work waited out the outage
    # The first core back is kicked into the backlog at once, so the
    # village's first segment after the failure starts at the recovery.
    assert min(t for t, busy in kicks if t >= recover_ns and busy) \
        == recover_ns
    assert min(t for t, v, __ in starts if v == target and t > fail_ns) \
        == recover_ns


def test_run_result_dict_gains_fault_keys_only_in_fault_mode():
    clean = _small_sim().run().as_dict()
    faulted = _small_sim(
        faults=FaultSchedule().fail_village(0, 2, 1e6)).run().as_dict()
    for key in ("failed", "availability", "goodput_rps", "faults"):
        assert key not in clean
        assert key in faulted


@pytest.mark.parametrize("config", [UMANYCORE, SCALEOUT, SERVERCLASS],
                         ids=lambda c: c.name)
def test_idle_resilience_wrapper_leaves_the_run_unchanged(config):
    """Metamorphic: a resilience policy whose timers never fire issues
    every call through the same path as a plain run, with the same RNG
    draws, so the answers are identical and no timeout is counted."""
    def run(**kw):
        return simulate(config, social_network_app("Text"),
                        rps_per_server=8_000, n_servers=2,
                        duration_s=0.005, seed=3, **kw)

    plain = run()
    guarded = run(resilience=ResilienceConfig(timeout_ns=1e9,
                                              max_retries=0))
    assert guarded.summary.as_dict() == plain.summary.as_dict()
    assert (guarded.completed, guarded.rejected) == \
        (plain.completed, plain.rejected)
    assert guarded.stats["faults"]["rpc_timeouts"] == 0
