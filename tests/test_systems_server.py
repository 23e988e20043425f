"""Tests for the Server assembly and executor behaviour."""

import numpy as np
import pytest

from repro.net.fabric import InterServerFabric, StorageBackend
from repro.sim import Engine
from repro.systems import SCALEOUT, SERVERCLASS, UMANYCORE, Server
from repro.workloads import SOCIAL_NETWORK_APPS


def build_server(config, app_name="Text", seed=0):
    engine = Engine()
    rng = np.random.default_rng(seed)
    fabric = InterServerFabric(engine, 1)
    storage = StorageBackend(engine, np.random.default_rng(seed + 1))
    app = SOCIAL_NETWORK_APPS[app_name]
    server = Server(engine, 0, config, {app.name: app}, rng, fabric, storage)
    return engine, server, app


def test_umanycore_builds_128_villages_of_8():
    __, server, __a = build_server(UMANYCORE)
    assert len(server.villages) == 128
    assert all(v.n_cores == 8 for v in server.villages)
    assert len(server.pools) == 32


def test_serverclass_builds_single_40_core_domain():
    __, server, __a = build_server(SERVERCLASS)
    assert len(server.villages) == 1
    assert server.villages[0].n_cores == 40


def test_scaleout_shares_one_central_scheduler():
    __, server, __a = build_server(SCALEOUT)
    scheds = {id(v.scheduler) for v in server.villages}
    assert len(scheds) == 1          # Shinjuku: one instance per chip


def test_umanycore_has_per_village_schedulers():
    __, server, __a = build_server(UMANYCORE)
    scheds = {id(v.scheduler) for v in server.villages}
    assert len(scheds) == len(server.villages)


def test_placement_registers_every_service():
    __, server, app = build_server(UMANYCORE)
    for service in app.services:
        villages = server.top_nic.villages_for(service)
        assert villages, service
    # 128 villages over 3 services of the Text app.
    total = sum(len(v) for v in
                (server.top_nic.villages_for(s) for s in app.services))
    assert total == 128


def test_snapshots_stored_in_every_cluster_pool():
    __, server, app = build_server(UMANYCORE)
    for pool in server.pools:
        for service in app.services:
            assert pool.has_snapshot(service)


def test_segment_time_faster_on_server_cores():
    """Same work: the 6-wide 3 GHz core beats the 4-wide 2 GHz core."""
    __, um, app = build_server(UMANYCORE)
    __, sc, __a = build_server(SERVERCLASS)
    from repro.core.request import RequestRecord

    def rec():
        return RequestRecord(app_name="Text", service="text",
                             segments=[100_000.0], on_complete=lambda r: None)

    r_um, r_sc = rec(), rec()
    r_um.village, r_sc.village = 0, 0
    core_um = um.villages[0].cores[0]
    core_sc = sc.villages[0].cores[0]
    t_um = um.segment_time_ns(r_um, core_um)
    # Strip ServerClass's software RPC-stack cost for an apples-to-apples
    # core comparison.
    t_sc = sc.segment_time_ns(r_sc, core_sc) - sc.config.sw_rpc_core_ns
    # Remove preemption overhead too (approximate: it is small).
    assert t_sc < t_um


def test_resume_penalty_ordering():
    """Same core < same L2 < cross-domain; cross-domain costs more
    without remote-cache coherence than with it."""
    __, server, __a = build_server(SCALEOUT)   # 32-core domains, global coh.
    from repro.core.request import RequestRecord

    rec = RequestRecord(app_name="Text", service="text",
                        segments=[1000.0, 1000.0], on_complete=lambda r: None)
    rec.village = 0
    rec.has_run = True

    class FakeCore:
        def __init__(self, core_id):
            self.core_id = core_id

    rec.last_core = (0, 0)
    same_core = server._resume_penalty_ns(rec, FakeCore(0))
    same_l2 = server._resume_penalty_ns(rec, FakeCore(1))      # cores 0-7: L2 0
    cross_l2 = server._resume_penalty_ns(rec, FakeCore(9))     # L2 group 1
    assert same_core == 0.0
    assert 0 < same_l2 < cross_l2


def test_storage_call_round_trip_completes():
    engine, server, app = build_server(UMANYCORE, app_name="UrlShort")
    done = []
    server.client_request("UrlShort", lambda rec: done.append(engine.now))
    engine.run()
    assert len(done) == 1
    assert server.storage.accesses == 1      # UrlShort does 1 storage call
    assert done[0] > 0


def test_nested_service_calls_complete():
    engine, server, app = build_server(UMANYCORE, app_name="Text")
    done = []
    server.client_request("Text", lambda rec: done.append(rec))
    engine.run()
    assert len(done) == 1 and not done[0].rejected
    # Text calls urlshorten + usermention, each with 1 storage access.
    assert server.storage.accesses == 2


@pytest.mark.parametrize("config", [UMANYCORE, SCALEOUT])
def test_busy_ns_sums_cores_village_by_village(config):
    """The flat core list keeps the nested village-then-core order, so
    the float sum is the same to the last bit."""
    engine, server, app = build_server(config, app_name="Text")
    for __ in range(20):
        server.client_request("Text", lambda rec: None)
    engine.run()
    nested = sum(c.busy_ns for v in server.villages for c in v.cores)
    assert nested > 0
    assert server.busy_ns().hex() == nested.hex()
    assert server.utilization() == nested / (engine.now * config.n_cores)


def test_cross_server_calls_route_through_fabric():
    engine = Engine()
    fabric = InterServerFabric(engine, 2)
    storage = StorageBackend(engine, np.random.default_rng(1))
    app = SOCIAL_NETWORK_APPS["Text"]
    import dataclasses
    cfg = dataclasses.replace(UMANYCORE, locality=0.0)  # all calls remote
    servers = [Server(engine, i, cfg, {app.name: app},
                      np.random.default_rng(10 + i), fabric, storage)
               for i in range(2)]
    for s in servers:
        s.peers = servers
    done = []
    servers[0].client_request("Text", lambda rec: done.append(rec))
    engine.run()
    assert len(done) == 1
    # client in/out + 2 remote service calls (requests and responses).
    assert fabric.messages >= 6
