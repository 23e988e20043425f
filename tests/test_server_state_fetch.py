"""Tests for the per-invocation state-fetch path and related Server
internals."""

import dataclasses

import numpy as np

from repro.core.request import RequestRecord
from repro.net.fabric import InterServerFabric, StorageBackend
from repro.sim import Engine
from repro.systems import SCALEOUT, UMANYCORE, Server
from repro.workloads import SOCIAL_NETWORK_APPS


def build(config, app_name="UrlShort", seed=0):
    engine = Engine()
    fabric = InterServerFabric(engine, 1)
    storage = StorageBackend(engine, np.random.default_rng(seed + 1))
    app = SOCIAL_NETWORK_APPS[app_name]
    server = Server(engine, 0, config, {app.name: app},
                    np.random.default_rng(seed), fabric, storage)
    return engine, server, app


def test_state_fetch_mostly_local_for_umanycore():
    """Villages + pools: >=85% of state fetches come from the local
    cluster, so local leaf->village links carry the traffic."""
    engine, server, __ = build(UMANYCORE)
    for __i in range(50):
        server.client_request("UrlShort", lambda rec: None)
    engine.run()
    # All uManycore state fetch hops are 1-hop (leaf -> village) when
    # local; remote ones add spine hops.  Measure the mean hops per
    # message as a proxy.
    mean_hops = server.network.hops_traversed / server.network.messages_sent
    assert mean_hops < 2.5


def test_state_fetch_crosses_fabric_for_global_coherence():
    engine, server, __ = build(SCALEOUT)
    for __i in range(50):
        server.client_request("UrlShort", lambda rec: None)
    engine.run()
    mean_hops = server.network.hops_traversed / server.network.messages_sent
    assert mean_hops > 2.5


def test_segment_done_waits_for_inflight_fetch():
    """If the state fetch has not arrived when the compute segment ends,
    the request stalls until the last fetch message lands."""
    engine, server, app = build(UMANYCORE)
    rec = server._make_request("UrlShort", "urlshorten",
                               lambda r: None)
    village = server.villages[server.top_nic.pick_village("urlshorten")]
    village.submit(rec)
    # Force a pending fetch and call segment_done directly.
    rec._fetch_remaining = 2
    rec._fetch_cont = None
    core = village.cores[0]
    server.segment_done(rec, village, core)
    assert rec._fetch_cont == (village, core)   # parked, not finished


def test_coherence_traffic_inflates_message_bytes():
    __, um, __a = build(UMANYCORE)
    __, so, __a2 = build(SCALEOUT)
    assert um._coh_request_bytes == 512           # village coherence
    assert so._coh_request_bytes > 512            # global coherence


def test_resume_penalty_zero_for_fresh_request():
    engine, server, __ = build(UMANYCORE)
    rec = RequestRecord("UrlShort", "urlshorten", [1000.0],
                        on_complete=lambda r: None)
    rec.village = 0
    assert server._resume_penalty_ns(rec, server.villages[0].cores[0]) == 0.0


def test_retry_counter_increments_on_full_rq():
    cfg = dataclasses.replace(UMANYCORE, name="uM-tiny-rq", rq_capacity=1,
                              n_cores=16, cores_per_queue=8, n_clusters=2)
    engine, server, __ = build(cfg, app_name="Text")
    for __i in range(50):
        server.client_request("Text", lambda rec: None)
    engine.run()
    assert server.retries > 0


def test_village_cluster_mapping():
    __, server, __a = build(UMANYCORE)
    assert server.village_cluster(0) == 0
    assert server.village_cluster(3) == 0     # 4 villages per cluster
    assert server.village_cluster(4) == 1
    assert server.village_cluster(127) == 31
