"""Differential tests for the terms the request hot path caches.

``Server.segment_time_ns`` looks its CPI and core frequency up once per
(app, service, big village) instead of calling the village core model
per segment, and ``ServiceSpec`` computes its lognormal parameters once.
Each must reproduce the formula it replaced bit for bit.  The last test
covers the village dispatch shortcut: an empty ready heap skips the
dequeue but not the steal.
"""

import math

import numpy as np
import pytest

from repro.core import HARDWARE_CS, RequestRecord, SchedulerDomain, Village
from repro.net.fabric import InterServerFabric, StorageBackend
from repro.sim import Engine
from repro.systems import SCALEOUT, SERVERCLASS, UMANYCORE, Server
from repro.systems.configs import heterogeneous_umanycore
from repro.workloads import DEATHSTAR_APPS, ServiceSpec

CONFIGS = {
    "umanycore": UMANYCORE,
    "scaleout": SCALEOUT,
    "serverclass": SERVERCLASS,
    "hetero": heterogeneous_umanycore(),
}


def _server(config) -> Server:
    engine = Engine()
    return Server(engine, 0, config, dict(DEATHSTAR_APPS),
                  np.random.default_rng(0), InterServerFabric(engine, 1),
                  StorageBackend(engine, np.random.default_rng(1)))


def _old_segment_time_ns(server: Server, rec: RequestRecord) -> float:
    """The compute, software-RPC and preemption terms as computed before
    the cache: the village core model's ``segment_time_ns`` per call."""
    cfg = server.config
    spec = server.apps[rec.app_name].services[rec.service]
    base = server.village_core_model(rec.village).segment_time_ns(
        rec.segments[rec.seg_index], spec.profile, cfg.l2_latency_cycles,
        server._mem_cycles)
    base += cfg.sw_rpc_core_ns
    if cfg.preempt_quantum_ns > 0:
        base += math.ceil(base / cfg.preempt_quantum_ns) \
            * server._preempt_check_ns
    return base


def _resumed(app: str, service: str, village: int, segments) -> RequestRecord:
    """A record resuming on the core it last ran on: no state fetch and
    no warmth penalty, so only the compared terms remain."""
    rec = RequestRecord(app_name=app, service=service,
                        segments=list(segments), on_complete=lambda r: None)
    rec.village = village
    rec.has_run = True
    rec.last_core = (village, 0)
    return rec


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cached_segment_terms_match_the_core_model(name):
    server = _server(CONFIGS[name])
    core = server.villages[0].cores[0]
    villages = sorted({0, len(server.villages) - 1}
                      | set(server._big_villages))
    if name == "hetero":
        small = [v for v in range(len(server.villages))
                 if v not in server._big_villages]
        assert server._big_villages and small
        villages.append(small[0])
    rng = np.random.default_rng(7)
    checked = 0
    for app in DEATHSTAR_APPS.values():
        for service, spec in app.services.items():
            counts = spec.sample_segments(rng) + [0.0, 1.0, 3.5e8]
            for v in villages:
                for i in range(len(counts)):
                    rec = _resumed(app.name, service, v, counts)
                    rec.seg_index = i
                    got = server.segment_time_ns(rec, core)
                    want = _old_segment_time_ns(server, rec)
                    assert got.hex() == want.hex(), (app.name, service, v)
                    checked += 1
    assert checked > 0


def test_negative_instruction_count_still_raises():
    server = _server(UMANYCORE)
    app = next(iter(DEATHSTAR_APPS.values()))
    rec = _resumed(app.name, app.root, 0, [-1.0])
    with pytest.raises(ValueError, match="negative instruction count"):
        server.segment_time_ns(rec, server.villages[0].cores[0])


def _old_sample_segments(spec: ServiceSpec, rng) -> list:
    """``ServiceSpec.sample_segments`` before its parameters were cached."""
    mean = spec.segment_instructions
    if spec.segment_cv == 0:
        return [mean] * spec.n_segments
    sigma2 = math.log(1.0 + spec.segment_cv ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    return rng.lognormal(mu, math.sqrt(sigma2),
                         size=spec.n_segments).tolist()


def test_sample_segments_draws_as_before_on_a_twin_generator():
    specs = [spec for app in DEATHSTAR_APPS.values()
             for spec in app.services.values()]
    specs.append(ServiceSpec("flat", 2e4, segment_cv=0.0))
    specs.append(ServiceSpec("wide", 3e3, segment_cv=4.0))
    new, old = np.random.default_rng(3), np.random.default_rng(3)
    for __ in range(3):
        for spec in specs:
            got = spec.sample_segments(new)
            want = _old_sample_segments(spec, old)
            assert [x.hex() for x in got] == [x.hex() for x in want]
    assert new.bit_generator.state == old.bit_generator.state


class _Executor:
    def __init__(self):
        self.started = []

    def segment_time_ns(self, rec, core):
        self.started.append(rec)
        return 100.0

    def segment_done(self, rec, village, core):
        village.finish(rec, core)


def test_empty_village_with_steal_peers_still_steals():
    engine = Engine()

    def village(vid):
        dom = SchedulerDomain(engine, HARDWARE_CS, freq_ghz=2.0)
        return Village(engine, vid, 1, dom, _Executor())

    busy, idle = village(0), village(1)
    idle.steal_from = [busy]
    busy.cores[0].busy = True           # nothing of its own can start
    rec = RequestRecord(app_name="app", service="svc", segments=[1e3],
                        on_complete=lambda r: None)
    assert busy.submit(rec)
    assert not idle.rq._ready_heap      # the thief's own RQ is empty
    assert idle._try_dispatch(idle.cores[0])
    assert idle.steals == 1
    engine.run()
    assert idle.executor.started == [rec]
    assert busy.executor.started == []
