"""Tests for the repro.hybrid analytic fast path.

Covers the steady-state detector against scripted (non-)stationary
series, the calibrated analytic models, the byte-identity contracts
(tol=0 and faulted runs replay the detailed run exactly), the
commit/elide path under the strict sanitizer, and the fig18
speculative-bisection equivalence.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultSchedule, ResilienceConfig
from repro.hybrid import (
    EmpiricalDist,
    HybridConfig,
    MGkModel,
    SteadyStateDetector,
    saturation_estimate_rps,
)
from repro.sched import erlang_c
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import UMANYCORE
from repro.workloads.deathstar import social_network_app

CONFIG = replace(UMANYCORE, n_cores=128, n_clusters=8)

#: Aggressive knobs so commits happen inside a few-ms test run.
FAST = HybridConfig(tol=0.5, windows=3, min_samples=5,
                    window_ns=300_000.0, calibration_roots=10)


def _sim(hybrid, duration_s=0.003, rps=16_000.0, seed=7, check=None):
    return ClusterSimulation(CONFIG, social_network_app("Text"),
                             rps_per_server=rps, n_servers=1,
                             duration_s=duration_s, seed=seed,
                             check=check, hybrid=hybrid)


# ------------------------------------------------------------ detector

def test_detector_converges_on_stationary_series():
    det = SteadyStateDetector(tol=0.2, windows=3)
    series = [100.0, 98.0, 103.0, 99.0]
    fired = [det.observe({"rate": v, "service_ns": 50.0 + (i % 2)})
             for i, v in enumerate(series)]
    assert fired == [False, False, True, True]   # latches once converged
    assert det.converged


def test_detector_never_fires_on_monotone_ramp():
    """A slow ramp fits inside a generous band but is still a trend; the
    monotone catch must hold it open until the trend breaks."""
    det = SteadyStateDetector(tol=0.5, windows=4)
    for v in (100.0, 104.0, 108.0, 112.0, 116.0, 120.0):
        assert not det.observe({"rate": v})
    assert det.observe({"rate": 118.0})          # trend broken: converge


def test_detector_tol_zero_never_converges():
    det = SteadyStateDetector(tol=0.0, windows=2)
    for __ in range(20):
        assert not det.observe({"rate": 100.0})


def test_detector_reset_rearms():
    det = SteadyStateDetector(tol=0.3, windows=2)
    det.observe({"rate": 100.0})
    assert det.observe({"rate": 100.0})
    det.reset()
    assert not det.converged and det.windows_seen == 0
    assert not det.observe({"rate": 100.0})      # history forgotten too


def test_detector_two_windows_can_converge():
    """The monotone-ramp catch is meaningless below 3 points (any two
    distinct values are "monotone") and must not block windows=2."""
    det = SteadyStateDetector(tol=0.3, windows=2)
    det.observe({"rate": 100.0})
    assert det.observe({"rate": 101.0})


def test_detector_floor_absorbs_near_zero_series():
    det = SteadyStateDetector(tol=0.2, windows=2, floors={"occ": 1.0})
    det.observe({"occ": 0.01})
    assert det.observe({"occ": 0.12})            # inside the floor band


def test_detector_rejects_single_window():
    with pytest.raises(ValueError):
        SteadyStateDetector(tol=0.2, windows=1)


# ------------------------------------------------------ analytic models

def test_hybrid_config_validation():
    for bad in (dict(tol=-0.1), dict(window_ns=-1.0), dict(windows=1),
                dict(min_samples=0), dict(guard_factor=0.0),
                dict(max_aborts=0), dict(calibration_roots=0)):
        with pytest.raises(ValueError):
            HybridConfig(**bad)


def test_empirical_dist_statistics_and_sampling():
    dist = EmpiricalDist([10.0, 20.0, 30.0, 40.0])
    assert len(dist) == 4
    assert dist.mean == pytest.approx(25.0)
    assert dist.quantile(0.0) == 10.0 and dist.quantile(1.0) == 40.0
    rng = np.random.default_rng(3)
    draws = [dist.sample(rng) for __ in range(200)]
    assert all(10.0 <= d <= 40.0 for d in draws)
    assert np.mean(draws) == pytest.approx(25.0, rel=0.15)
    single = EmpiricalDist([7.0])
    assert single.sample(rng) == 7.0
    with pytest.raises(ValueError):
        EmpiricalDist([])


def test_mgk_model_units_and_saturation():
    m = MGkModel(rate_rps=50_000.0, service_ns=10_000.0, servers=1)
    assert m.utilization == pytest.approx(0.5)
    assert m.saturation_rps == pytest.approx(100_000.0)
    assert 0.0 < erlang_c(m.rate_rps, 1e9 / m.service_ns, m.servers) <= 1.0
    assert m.mean_wait_ns() > 0.0
    hot = MGkModel(rate_rps=200_000.0, service_ns=10_000.0, servers=1)
    assert erlang_c(hot.rate_rps, 1e9 / hot.service_ns, hot.servers) == 1.0
    assert hot.mean_wait_ns() == float("inf")
    idle = MGkModel(rate_rps=0.0, service_ns=10_000.0, servers=4)
    assert idle.mean_wait_ns() == 0.0
    with pytest.raises(ValueError):
        MGkModel(rate_rps=-1.0, service_ns=10_000.0, servers=1)


def test_mgk_deterministic_service_halves_the_mmk_wait():
    mm1 = MGkModel(rate_rps=80_000.0, service_ns=10_000.0, servers=1)
    md1 = MGkModel(rate_rps=80_000.0, service_ns=10_000.0, servers=1,
                   cs2=0.0)
    assert md1.mean_wait_ns() == pytest.approx(mm1.mean_wait_ns() / 2)


def test_saturation_estimate_is_physical():
    est = saturation_estimate_rps(CONFIG, social_network_app("Text"))
    assert 1_000.0 < est < 10_000_000.0


# --------------------------------------------- byte-identity contracts

def test_tol_zero_run_is_byte_identical_to_detailed():
    plain = _sim(None).run().as_dict()
    armed = _sim(HybridConfig(tol=0.0)).run().as_dict()
    stats = armed.pop("hybrid")
    assert stats["state"] == "detecting"
    assert stats["commits"] == 0 and stats["roots_elided"] == 0
    assert armed == plain


def test_faulted_run_never_commits_and_stays_identical():
    """The structural guard keeps fault-injected runs fully detailed
    even under knobs that would otherwise commit almost immediately."""
    def faulted(hybrid):
        sim = _sim(hybrid, duration_s=0.004)
        sim.install_faults(
            FaultSchedule(detection_ns=100_000.0)
            .fail_village(0, 1, at_ns=1e6, recover_at_ns=2e6),
            ResilienceConfig(timeout_ns=600_000.0, max_retries=2))
        return sim.run().as_dict()

    plain = faulted(None)
    armed = faulted(FAST)
    stats = armed.pop("hybrid")
    assert stats["commits"] == 0 and stats["roots_elided"] == 0
    assert armed == plain


# -------------------------------------------------- commit/elide path

def test_commit_elides_roots_under_strict_sanitizer():
    from repro.check import CheckContext

    check = CheckContext(strict=True)
    result = _sim(FAST, duration_s=0.004, check=check).run()
    stats = result.stats["hybrid"]
    assert stats["state"] == "committed"
    assert stats["commits"] >= 1 and stats["aborts"] == 0
    assert stats["roots_elided"] > 0
    assert stats["events_elided"] > 0
    assert stats["committed_at_ns"] is not None
    assert stats["services_committed"]
    model = stats["models"][stats["services_committed"][0]]
    assert model["samples"] >= FAST.calibration_roots
    assert check.ok


def test_hybrid_run_is_deterministic():
    a = _sim(FAST, duration_s=0.004).run().as_dict()
    b = _sim(FAST, duration_s=0.004).run().as_dict()
    assert a == b


def test_sweep_point_cache_key_varies_with_hybrid():
    from repro.runner import SweepPoint

    app = social_network_app("Text")
    base = SweepPoint(config=CONFIG, app=app, rps=8_000.0, n_servers=1,
                      duration_s=0.002, seed=1)
    armed = replace(base, hybrid=FAST)
    other = replace(base, hybrid=replace(FAST, tol=0.4))
    assert base.key() != armed.key() != other.key()


# ------------------------------------------------- fig18 speculation

def test_fig18_speculative_bisection_matches_serial():
    from repro.experiments.common import Settings
    from repro.experiments.fig18_throughput import max_throughputs

    pairs = [(CONFIG, social_network_app("Text"))]
    settings = Settings(n_servers=1, duration_s=0.002)
    kw = dict(low=2_000.0, high=64_000.0, iterations=3)
    serial = max_throughputs(pairs, settings, speculate=False, **kw)
    spec = max_throughputs(pairs, settings, speculate=True, **kw)
    assert spec == serial
