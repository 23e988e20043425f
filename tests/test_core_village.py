"""Tests for the village execution engine with a stub executor."""

import pytest

from repro.core import HARDWARE_CS, RequestRecord, SchedulerDomain, Village
from repro.core.request import RequestStatus
from repro.sim import Engine


class StubExecutor:
    """Fixed 100 ns segments; blocks between segments for ``block_ns``."""

    def __init__(self, engine, block_ns=500.0, segment_ns=100.0):
        self.engine = engine
        self.block_ns = block_ns
        self.segment_ns = segment_ns

    def segment_time_ns(self, rec, core):
        return self.segment_ns

    def segment_done(self, rec, village, core):
        if rec.is_last_segment:
            village.finish(rec, core)
            return
        village.block_for_call(rec, core)
        self.engine.schedule(self.block_ns, village.make_ready, rec)


def make_village(engine, n_cores=2, executor=None, **kw):
    executor = executor or StubExecutor(engine)
    dom = SchedulerDomain(engine, HARDWARE_CS, freq_ghz=2.0)
    return Village(engine, 0, n_cores, dom, executor, **kw), executor


def make_request(n_segments=1, on_complete=None):
    return RequestRecord(app_name="app", service="svc",
                         segments=[1000.0] * n_segments,
                         on_complete=on_complete or (lambda r: None))


def test_single_segment_request_completes():
    eng = Engine()
    village, __ = make_village(eng)
    done = []
    rec = make_request(on_complete=lambda r: done.append(eng.now))
    assert village.submit(rec)
    eng.run()
    assert len(done) == 1
    assert rec.status is RequestStatus.FINISHED
    assert village.completed == 1
    # segment 100 ns (no restore on first run; hw scheduler op free).
    assert done[0] == pytest.approx(100.0)


def test_multi_segment_request_blocks_and_resumes():
    eng = Engine()
    village, ex = make_village(eng)
    done = []
    rec = make_request(n_segments=3, on_complete=lambda r: done.append(eng.now))
    village.submit(rec)
    eng.run()
    # 3 segments + 2 blocks; timing: seg + block(>=500) + restore + ...
    assert len(done) == 1
    assert done[0] >= 3 * 100 + 2 * 500
    assert rec.seg_index == 2


def test_core_freed_during_block_serves_other_requests():
    eng = Engine()
    village, __ = make_village(eng, n_cores=1)
    finished = []
    blocked_rec = make_request(n_segments=2,
                               on_complete=lambda r: finished.append("blocked"))
    short_rec = make_request(on_complete=lambda r: finished.append("short"))
    village.submit(blocked_rec)
    village.submit(short_rec)
    eng.run()
    # The short request runs while the first is blocked on its call.
    assert finished == ["short", "blocked"]


def test_two_cores_run_in_parallel():
    eng = Engine()
    village, __ = make_village(eng, n_cores=2)
    done = []
    for __i in range(2):
        village.submit(make_request(on_complete=lambda r: done.append(eng.now)))
    eng.run()
    assert done == [pytest.approx(100.0)] * 2


def test_queue_wait_recorded_under_contention():
    eng = Engine()
    village, __ = make_village(eng, n_cores=1)
    recs = [make_request() for __ in range(3)]
    for r in recs:
        village.submit(r)
    eng.run()
    assert recs[0].queue_wait_ns == pytest.approx(0.0)
    assert recs[1].queue_wait_ns > 0
    assert recs[2].queue_wait_ns > recs[1].queue_wait_ns


def test_rq_overflow_rejects():
    eng = Engine()
    village, __ = make_village(eng, n_cores=1, rq_capacity=2)
    assert village.submit(make_request())
    assert village.submit(make_request())
    assert not village.submit(make_request())


def test_work_stealing_moves_requests():
    eng = Engine()
    executor = StubExecutor(eng)
    dom = SchedulerDomain(eng, HARDWARE_CS, freq_ghz=2.0)
    busy = Village(eng, 0, 1, dom, executor)
    idle = Village(eng, 1, 1, dom, executor, steal_from=[busy],
                   steal_overhead_ns=10.0)
    done = []
    for __ in range(4):
        busy.submit(make_request(on_complete=lambda r: done.append(eng.now)))
    # Kick the idle village after requests land in the busy one.
    eng.schedule(1.0, idle._kick)
    eng.run()
    assert len(done) == 4
    assert idle.steals > 0


def test_utilization_accounting():
    eng = Engine()
    village, __ = make_village(eng, n_cores=2)
    village.submit(make_request())
    eng.run()
    # 1 core busy 100 ns out of 2 cores x 100 ns elapsed.
    assert village.utilization() == pytest.approx(0.5)


def test_invalid_core_count():
    eng = Engine()
    with pytest.raises(ValueError):
        make_village(eng, n_cores=0)
