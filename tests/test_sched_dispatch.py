"""Tests for the NIC dispatch, steal-victim and core-bypass policies
(the repro.sched pluggable decision points)."""

import numpy as np
import pytest

from repro.core import HARDWARE_CS, RequestRecord, SchedulerDomain, Village
from repro.sched.dispatch import AffinityDispatch, DISPATCH_NAMES, \
    LeastOccupancyDispatch, RandomDispatch, RoundRobinDispatch, \
    get_dispatch_policy
from repro.sched.stealing import FIRST_STEAL, MAXLOAD_STEAL, STEAL_NAMES, \
    MaxLoadSteal, get_steal_policy
from repro.sim import Engine


class StubNic:
    """Just enough NIC surface for a DispatchPolicy: rng + occupancy."""

    def __init__(self, occupancy=None, seed=0):
        self.rng = np.random.default_rng(seed)
        self._occupancy = occupancy or {}
        self.occupancy_of = self._occupancy.get


# ----------------------------------------------------------- registries

def test_dispatch_registry():
    assert DISPATCH_NAMES == ("affinity", "least", "random", "rr")
    assert isinstance(get_dispatch_policy("rr"), RoundRobinDispatch)
    # Stateful rotation: every NIC gets its own instance.
    assert get_dispatch_policy("rr") is not get_dispatch_policy("rr")
    with pytest.raises(ValueError):
        get_dispatch_policy("hash")


def test_steal_registry():
    assert STEAL_NAMES == ("first", "maxload")
    assert get_steal_policy("first") is FIRST_STEAL
    assert get_steal_policy("maxload") is MAXLOAD_STEAL
    with pytest.raises(ValueError):
        get_steal_policy("nearest")


# -------------------------------------------------------- round robin

def test_round_robin_rotates_per_service():
    p = RoundRobinDispatch()
    nic = StubNic()
    vs = [0, 1, 2]
    got = [p.choose(nic, "a", vs, vs) for __ in range(4)]
    assert got == [0, 1, 2, 0]
    # Rotations are independent per service.
    assert p.choose(nic, "b", vs, vs) == 0


def test_round_robin_skips_unhealthy_in_place():
    """A down village is skipped without shifting the rotation for the
    survivors — the pointer is keyed on the *unfiltered* list."""
    p = RoundRobinDispatch()
    nic = StubNic()
    vs = [0, 1, 2]
    assert p.choose(nic, "a", vs, vs) == 0
    # Village 1 goes down: its turn passes straight to 2.
    assert p.choose(nic, "a", vs, [0, 2]) == 2
    assert p.choose(nic, "a", vs, [0, 2]) == 0
    # Village 1 recovers and is back in its old rotation slot.
    assert p.choose(nic, "a", vs, vs) == 1


# ------------------------------------------------------------- random

def test_random_dispatch_uses_nic_rng():
    vs = [0, 1, 2, 3]
    a = [RandomDispatch().choose(StubNic(seed=5), "a", vs, vs)
         for __ in range(8)]
    b = [RandomDispatch().choose(StubNic(seed=5), "a", vs, vs)
         for __ in range(8)]
    assert a == b                    # deterministic given the NIC rng
    assert set(a) <= set(vs)


# ----------------------------------------------------- least occupancy

def test_least_occupancy_picks_shortest_queue():
    p = LeastOccupancyDispatch()
    nic = StubNic(occupancy={0: 5, 1: 2, 2: 9})
    assert p.choose(nic, "a", [0, 1, 2], [0, 1, 2]) == 1


def test_least_occupancy_tie_breaks_by_registration_order():
    p = LeastOccupancyDispatch()
    nic = StubNic(occupancy={0: 3, 1: 3, 2: 3})
    assert p.choose(nic, "a", [0, 1, 2], [0, 1, 2]) == 0
    assert p.choose(nic, "a", [0, 1, 2], [2, 1]) == 2


def test_needs_occupancy_flags():
    assert LeastOccupancyDispatch.needs_occupancy
    assert AffinityDispatch.needs_occupancy
    assert not RoundRobinDispatch.needs_occupancy
    assert not RandomDispatch.needs_occupancy


# ------------------------------------------------------------ affinity

def test_affinity_sticks_to_home_within_margin():
    p = AffinityDispatch(spill_margin=4)
    nic = StubNic(occupancy={0: 4, 1: 0})
    assert p.choose(nic, "a", [0, 1], [0, 1]) == 0   # 4 - 0 == margin
    assert p.spills == 0


def test_affinity_spills_past_margin():
    p = AffinityDispatch(spill_margin=4)
    nic = StubNic(occupancy={0: 5, 1: 0})
    assert p.choose(nic, "a", [0, 1], [0, 1]) == 1
    assert p.spills == 1


def test_affinity_pure_spill_when_home_down():
    p = AffinityDispatch(spill_margin=4)
    nic = StubNic(occupancy={1: 7, 2: 3})
    assert p.choose(nic, "a", [0, 1, 2], [1, 2]) == 2
    assert p.spills == 0             # not a load spill, home is absent


def test_affinity_rejects_negative_margin():
    with pytest.raises(ValueError):
        AffinityDispatch(spill_margin=-1)


# ----------------------------------------------------- steal policies

class StubExecutor:
    def __init__(self, engine, segment_ns=100.0):
        self.engine = engine
        self.segment_ns = segment_ns

    def segment_time_ns(self, rec, core):
        return self.segment_ns

    def segment_done(self, rec, village, core):
        village.finish(rec, core)


def make_request(service="svc", on_complete=None):
    return RequestRecord(app_name="app", service=service,
                         segments=[1000.0],
                         on_complete=on_complete or (lambda r: None))


def _villages(engine, n=3, **thief_kw):
    dom = SchedulerDomain(engine, HARDWARE_CS, freq_ghz=2.0)
    executor = StubExecutor(engine)
    peers = [Village(engine, i, 1, dom, executor) for i in range(n)]
    thief = Village(engine, n, 1, dom, executor, steal_from=peers,
                    **thief_kw)
    return thief, peers


def test_first_peer_steal_takes_list_order():
    eng = Engine()
    thief, peers = _villages(eng, steal_policy=FIRST_STEAL)
    # Fill peers without letting their own cores run.
    for v in peers:
        v.cores[0].busy = True
    peers[1].submit(make_request())
    peers[2].submit(make_request())
    rec = thief.steal_policy.steal(thief, thief.cores[0])
    assert rec is not None and rec.village == 1


def test_maxload_steal_raids_deepest_peer():
    eng = Engine()
    thief, peers = _villages(eng, steal_policy=MAXLOAD_STEAL)
    for v in peers:
        v.cores[0].busy = True
    peers[1].submit(make_request())
    for __ in range(3):
        peers[2].submit(make_request())
    rec = thief.steal_policy.steal(thief, thief.cores[0])
    assert rec is not None and rec.village == 2


def test_maxload_steal_ties_keep_list_order():
    eng = Engine()
    thief, peers = _villages(eng, steal_policy=MAXLOAD_STEAL)
    for v in peers:
        v.cores[0].busy = True
        v.submit(make_request())
    rec = thief.steal_policy.steal(thief, thief.cores[0])
    assert rec is not None and rec.village == 0


def test_maxload_steal_empty_peers_returns_none():
    eng = Engine()
    thief, __ = _villages(eng, steal_policy=MAXLOAD_STEAL)
    assert thief.steal_policy.steal(thief, thief.cores[0]) is None


def test_maxload_backlog_counts_soft_entries():
    class RQ:
        occupancy = 2
        soft_entries = 3

    class V:
        rq = RQ()

    assert MaxLoadSteal._backlog(V()) == 5


def test_village_counts_steals_and_finishes_stolen_work():
    eng = Engine()
    thief, peers = _villages(eng, steal_policy=MAXLOAD_STEAL,
                             steal_overhead_ns=10.0)
    done = []
    peers[0].cores[0].busy = True
    for __ in range(3):
        peers[0].submit(make_request(
            on_complete=lambda r: done.append(eng.now)))
    eng.schedule(1.0, thief._kick)
    eng.run()
    assert thief.steals > 0
    # Conservation stays at the owner: all three complete at peer 0's RQ.
    assert len(done) == 3
    assert peers[0].rq.occupancy == 0


# -------------------------------------------------------- core bypass

def test_bypass_runs_arrival_on_idle_core_immediately():
    eng = Engine()
    dom = SchedulerDomain(eng, HARDWARE_CS, freq_ghz=2.0)
    village = Village(eng, 0, 1, dom, StubExecutor(eng), core_bypass=True)
    done = []
    village.submit(make_request(on_complete=lambda r: done.append(eng.now)))
    assert village.bypasses == 1
    assert village.cores[0].busy
    eng.run()
    assert len(done) == 1


def test_bypass_skipped_when_cores_busy():
    eng = Engine()
    dom = SchedulerDomain(eng, HARDWARE_CS, freq_ghz=2.0)
    village = Village(eng, 0, 1, dom, StubExecutor(eng), core_bypass=True)
    village.submit(make_request())
    village.submit(make_request())   # core taken by the first
    assert village.bypasses == 1     # second one queued normally
    eng.run()
    assert village.completed == 2


def test_bypass_never_jumps_older_ready_work():
    """An arrival must not bypass past READY work already queued for the
    idle core (that would invert FCFS under the default policy)."""
    eng = Engine()
    dom = SchedulerDomain(eng, HARDWARE_CS, freq_ghz=2.0)
    village = Village(eng, 0, 1, dom, StubExecutor(eng), core_bypass=True)
    # Queue an entry while the core is (artificially) busy...
    village.cores[0].busy = True
    first = make_request()
    village.submit(first)
    assert village.bypasses == 0
    # ...then free the core without kicking and submit a new arrival:
    # bypass must refuse because `first` is older and ready.
    village.cores[0].busy = False
    village.submit(make_request())
    assert village.bypasses == 0


def test_bypass_zeroes_queue_wait():
    eng = Engine()
    dom = SchedulerDomain(eng, HARDWARE_CS, freq_ghz=2.0)
    village = Village(eng, 0, 1, dom, StubExecutor(eng), core_bypass=True)
    rec = make_request()
    village.submit(rec)
    eng.run()
    assert rec.queue_wait_ns == 0.0
