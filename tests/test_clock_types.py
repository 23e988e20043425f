"""Simulated time stays a Python ``float`` on the event path.

Every time handed to the engine and every value of ``engine.now`` must
be a built-in ``float``: a ``numpy.float64`` on the clock makes each heap
comparison and time sum run numpy's scalar code.  Times are converted
where they are made (segment samples, empirical draws), not in the
engine, so this test records every scheduled time across runs that
reach each layer.
"""

from dataclasses import replace

import pytest

from repro.dc.config import DcConfig
from repro.faults import FaultSchedule, ResilienceConfig
from repro.hybrid.config import HybridConfig
from repro.sim.engine import Engine
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import SCALEOUT, UMANYCORE
from repro.workloads.deathstar import social_network_app
from repro.workloads.synthetic import synthetic_app

SMALL = replace(UMANYCORE, n_cores=128, n_clusters=8)
SMALL_SCALEOUT = replace(SCALEOUT, n_cores=128, n_clusters=8,
                         coherence_domain_cores=128)

#: Run name -> ``ClusterSimulation`` keyword arguments.
RUNS = {
    "um128": lambda: dict(),
    "scaleout-jitter": lambda: dict(
        config=replace(SMALL_SCALEOUT, cs=replace(
            SMALL_SCALEOUT.cs, jitter_prob=0.05, jitter_ns=20_000.0))),
    "hybrid-metrics": lambda: dict(
        duration_s=0.004, metrics_interval_ns=100_000.0,
        hybrid=HybridConfig(tol=0.5, windows=3, min_samples=5,
                            window_ns=300_000.0, calibration_roots=10)),
    "dc-autoscale": lambda: dict(
        n_servers=3, rps_per_server=2_000.0,
        dc=DcConfig(lb="least", autoscale=True, min_servers=1,
                    autoscale_interval_ns=100_000.0, scale_down_util=0.5)),
    "faults-resilience": lambda: dict(
        n_servers=2,
        faults=FaultSchedule(detection_ns=50_000.0)
        .fail_village(0, 1, at_ns=5e5, recover_at_ns=1.5e6)
        .fail_link(0, "leaf0:0", "spine0:0", at_ns=2e5),
        resilience=ResilienceConfig(timeout_ns=300_000.0, max_retries=4,
                                    hedge_delay_ns=100_000.0)),
    "fig20-synthetic": lambda: dict(
        app=synthetic_app("bimodal", mean_service_us=120.0,
                          blocking_calls=4)),
}


def _record_times(monkeypatch):
    """Wrap the engine's three scheduling entry points; return the list
    of ``(entry point, value)`` pairs whose type is not ``float``."""
    bad = []
    schedule, schedule_at = Engine.schedule, Engine.schedule_at
    batch = Engine.schedule_at_batch

    def check(where, value):
        if type(value) is not float:
            bad.append((where, type(value).__name__))

    def wrapped_schedule(self, delay, fn, *args):
        ev = schedule(self, delay, fn, *args)
        check("schedule", ev[0])
        check("now", self.now)
        return ev

    def wrapped_schedule_at(self, time, fn, *args):
        ev = schedule_at(self, time, fn, *args)
        check("schedule_at", ev[0])
        check("now", self.now)
        return ev

    def wrapped_batch(self, times, fn, *args, **kw):
        times = list(times)
        for t in times:
            check("schedule_at_batch", t)
        return batch(self, times, fn, *args, **kw)

    monkeypatch.setattr(Engine, "schedule", wrapped_schedule)
    monkeypatch.setattr(Engine, "schedule_at", wrapped_schedule_at)
    monkeypatch.setattr(Engine, "schedule_at_batch", wrapped_batch)
    return bad


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_scheduled_time_is_a_python_float(monkeypatch, run):
    bad = _record_times(monkeypatch)
    kw = dict(config=SMALL, app=social_network_app("Text"),
              rps_per_server=16_000.0, n_servers=1, duration_s=0.003,
              seed=7)
    kw.update(RUNS[run]())
    sim = ClusterSimulation(**kw)
    result = sim.run()
    assert sim.engine.events_processed > 1000
    if run == "hybrid-metrics":
        assert result.stats["hybrid"]["roots_elided"] > 0
    if run == "scaleout-jitter":
        assert sum(v.scheduler.jitter_events for s in sim.servers
                   for v in s.villages) > 0
    if run == "dc-autoscale":
        assert sim.autoscaler.scale_ups + sim.autoscaler.scale_downs > 0
    if run == "faults-resilience":
        assert result.stats["faults"]["rpc_timeouts"] > 0
    assert type(sim.engine.now) is float
    assert not bad, f"{len(bad)} non-float times, first: {bad[:3]}"
