"""Integration tests for the multi-server cluster simulation."""

import dataclasses

import pytest

from repro.systems import SCALEOUT, SERVERCLASS, UMANYCORE, simulate
from repro.systems.cluster import ClusterSimulation
from repro.workloads import SOCIAL_NETWORK_APPS, synthetic_app

APP = SOCIAL_NETWORK_APPS["Text"]


def quick(config, app=APP, rps=3000, servers=1, duration=0.01, seed=0, **kw):
    return simulate(config, app, rps_per_server=rps, n_servers=servers,
                    duration_s=duration, seed=seed, **kw)


def test_all_offered_requests_complete_under_light_load():
    r = quick(UMANYCORE)
    assert r.completed == r.offered
    assert r.rejected == 0
    assert r.summary.count > 0
    assert r.summary.mean > 0


def test_results_are_deterministic_for_a_seed():
    a = quick(UMANYCORE, seed=7)
    b = quick(UMANYCORE, seed=7)
    assert a.summary.mean == b.summary.mean
    assert a.summary.p99 == b.summary.p99
    c = quick(UMANYCORE, seed=8)
    assert c.summary.mean != a.summary.mean


def test_p99_at_least_mean():
    r = quick(SCALEOUT)
    assert r.summary.p99 >= r.summary.p50
    assert r.summary.p999 >= r.summary.p99


def test_umanycore_beats_baselines_under_load():
    """The headline result at high load (small-scale smoke version)."""
    results = {cfg.name: quick(cfg, rps=15000, servers=2, duration=0.025)
               for cfg in (UMANYCORE, SCALEOUT, SERVERCLASS)}
    um = results["uManycore"]
    assert results["ServerClass"].p99_ns > 1.5 * um.p99_ns
    assert results["ScaleOut"].mean_ns > um.mean_ns
    assert results["ServerClass"].mean_ns > um.mean_ns


def test_synthetic_workload_runs():
    app = synthetic_app("bimodal", mean_service_us=30.0, blocking_calls=2)
    r = quick(UMANYCORE, app=app)
    assert r.completed == r.offered


def test_disabling_icn_contention_never_slows_requests():
    base = quick(SCALEOUT, rps=8000)
    nc = quick(dataclasses.replace(SCALEOUT, name="SO-nc",
                                   icn_contention=False), rps=8000)
    assert nc.summary.mean <= base.summary.mean * 1.001


def test_work_stealing_config_runs():
    cfg = dataclasses.replace(SCALEOUT, name="SO-steal", steal="first")
    r = quick(cfg)
    assert r.completed == r.offered


def test_multi_server_cluster_runs():
    r = quick(UMANYCORE, servers=3, rps=2000)
    assert r.n_servers == 3
    assert r.completed == r.offered


def test_throughput_property():
    r = quick(UMANYCORE, rps=3000, duration=0.01)
    assert r.throughput_rps == pytest.approx(
        r.completed / (0.01 * r.n_servers))


def test_warmup_excludes_early_samples():
    sim = ClusterSimulation(UMANYCORE, APP, rps_per_server=3000,
                            n_servers=1, duration_s=0.01, seed=0,
                            warmup_fraction=0.5)
    r = sim.run()
    assert r.summary.count < r.completed


def test_invalid_harness_args():
    with pytest.raises(ValueError):
        ClusterSimulation(UMANYCORE, APP, 1000, n_servers=0)
    with pytest.raises(ValueError):
        ClusterSimulation(UMANYCORE, APP, 1000, warmup_fraction=1.0)
