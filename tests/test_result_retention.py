"""A finished run's ``RunResult`` holds data, never the simulator.

Each observer or layer that a result carries, or that hooks into the
servers, must let the simulation be freed once the caller drops it: the
engine and every ``Server`` are collected while the result stays alive
and reads the same.  A weakref to the simulation alone would not show a
leak, because a gauge reader holds the servers, not the simulation.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.check import CheckContext
from repro.dc.config import DcConfig
from repro.faults import FaultSchedule, ResilienceConfig
from repro.hybrid.config import HybridConfig
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import UMANYCORE
from repro.telemetry import Tracer
from repro.workloads.deathstar import social_network_app

SMALL = replace(UMANYCORE, n_cores=128, n_clusters=8)

#: Knobs that let the hybrid fast path commit inside a few-ms run.
FAST_HYBRID = HybridConfig(tol=0.5, windows=3, min_samples=5,
                           window_ns=300_000.0, calibration_roots=10)

#: Layer combination -> fresh ``ClusterSimulation`` keyword arguments.
LAYERS = {
    "metrics": lambda: dict(metrics_interval_ns=100_000.0),
    "metrics+hybrid": lambda: dict(metrics_interval_ns=100_000.0,
                                   hybrid=FAST_HYBRID),
    "tracer": lambda: dict(tracer=Tracer()),
    "dc-autoscale": lambda: dict(
        n_servers=3, rps_per_server=2_000.0,
        dc=DcConfig(lb="least", autoscale=True, min_servers=1,
                    autoscale_interval_ns=100_000.0, scale_down_util=0.5)),
    "faults+resilience": lambda: dict(
        faults=FaultSchedule(detection_ns=50_000.0).fail_village(
            0, 1, at_ns=1e6, recover_at_ns=2e6),
        resilience=ResilienceConfig(timeout_ns=500_000.0, max_retries=4)),
    "check-strict": lambda: dict(check=CheckContext(strict=True)),
}


def _sim(**kw):
    kw.setdefault("n_servers", 1)
    kw.setdefault("rps_per_server", 16_000.0)
    return ClusterSimulation(SMALL, social_network_app("Text"),
                             duration_s=0.003, seed=7, **kw)


def _engine_and_servers(sim):
    return [weakref.ref(sim.engine)] + [weakref.ref(s) for s in sim.servers]


def _assert_dead(refs):
    alive = sum(ref() is not None for ref in refs)
    assert alive == 0, f"{alive} of {len(refs)} engine/server objects " \
        f"outlived the simulation"


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_result_does_not_keep_the_simulator_alive(layer):
    sim = _sim(**LAYERS[layer]())
    result = sim.run()
    if layer == "metrics+hybrid":
        assert result.hybrid_stats["roots_elided"] > 0
    if layer.startswith("metrics"):
        assert result.metrics.samples_taken > 0
    before = result.as_dict()
    refs = _engine_and_servers(sim)
    del sim
    gc.collect()
    _assert_dead(refs)
    assert result.as_dict() == before


def test_run_cut_short_by_max_events_still_closes_its_metrics():
    sim = _sim(metrics_interval_ns=100_000.0)
    result = sim.run(max_events=1_000)
    assert sim.engine.peek_time() is not None      # the budget cut it
    with pytest.raises(RuntimeError, match="closed"):
        result.metrics.sample_once(0.0)
    refs = _engine_and_servers(sim)
    del sim
    gc.collect()
    _assert_dead(refs)
