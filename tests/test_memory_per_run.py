"""Guard on the memory one run keeps.

A 4-server cell builds about 1 600 ``Resource``s (ICN links, cores,
NIC serialization points) and only a few hundred of them ever hold a
waiting job, so a resource allocates its FIFO queue on its first
waiter.  A finished ``RunResult`` keeps its closed metrics registry:
every gauge's sampled values and the root-latency histogram, stored as
packed ``array('d')`` columns, and one column of sample times that all
gauges share.  This test reads, with ``tracemalloc``,
the bytes a small metrics-sampling run's result keeps alive once the
simulation is freed; a change that boxes samples again, or keeps a
simulator object in the result, moves it at once.

Measured on CPython 3.11 for the run below (2 servers, 20 ms, 10 gauges
sampled every 100 us: 226 samples each, 386 roots): 220 194 bytes with
``(t, v)`` tuples and boxed floats, 46 506 bytes packed with a times
column per gauge, 28 446 bytes with one shared times column.
"""

import gc
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np

from repro.metrics.latency import LatencyRecorder
from repro.sim import Engine, Resource
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import UMANYCORE
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.workloads.deathstar import social_network_app

#: Most bytes the run's ``RunResult`` may keep: the measured 28 446
#: plus 16 % headroom for interpreter differences.  Boxing the latency
#: histogram again (37 670), a times column per gauge or boxed gauge
#: series goes over it.
CEILING = 33_000


def _small_run(**kw) -> ClusterSimulation:
    return ClusterSimulation(replace(UMANYCORE, n_cores=128, n_clusters=8),
                             social_network_app("Text"),
                             rps_per_server=10_000.0, n_servers=2,
                             duration_s=0.02, seed=7,
                             metrics_interval_ns=100_000.0, **kw)


def test_a_resource_allocates_its_queue_on_the_first_waiter():
    eng = Engine()
    spaced, contended = Resource(eng), Resource(eng)
    for t in (0.0, 10.0, 20.0):
        eng.schedule_at(t, spaced.acquire, 5.0, lambda: None)
        eng.schedule_at(t, contended.acquire, 15.0, lambda: None)
    eng.run()
    assert spaced.jobs_served == contended.jobs_served == 3
    assert type(spaced._queue) is not deque and spaced.queue_length == 0
    assert type(contended._queue) is deque and contended.max_queue_len == 1

    # In a run, exactly the links on which a message waited hold a deque.
    sim = _small_run()
    sim.run()
    links = [link for server in sim.servers
             for link in server.network._links.values()]
    waited = [link for link in links if link.max_queue_len]
    assert 0 < len(waited) < len(links)
    for link in links:
        assert (type(link._queue) is deque) == (link.max_queue_len > 0)


def _retained_bytes() -> int:
    """Bytes the run's result keeps alive once the simulation is freed."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = _small_run()
        result = sim.run()
        del sim
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        assert result.metrics.samples_taken == 226
        del result
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_run_result_keeps_packed_samples_only():
    kept = _retained_bytes()
    assert kept <= CEILING, (
        f"the RunResult keeps {kept} bytes > {CEILING} (boxed samples or "
        f"a simulator object held by the result?)")


def test_arrays_handed_out_survive_further_recording():
    """An ``array('d')`` with a live view of its buffer refuses to grow
    (``BufferError``), so nothing taken out of a recorder, histogram
    or registry may be a view of its columns."""
    rec, hist, reg = LatencyRecorder(), Histogram("h"), MetricsRegistry()
    depth = iter(range(100))
    reg.gauge("depth", lambda: next(depth))
    for i in range(8):
        rec.record(100.0 * i, 10.0 + i)
        hist.observe(10.0 + i)
        reg.sample_once(100.0 * i)
    taken = [rec.latencies(), rec.latencies(after_ns=300.0), rec.samples()]
    copies = [a.copy() for a in taken]
    values, series = hist.values, reg.series
    assert all(a.base is None for a in taken)
    late = iter(range(100, 200))
    reg.gauge("late", lambda: next(late))   # registered mid-sampling

    for i in range(8, 16):
        rec.record(100.0 * i, 10.0 + i)
        hist.observe(10.0 + i)
        reg.sample_once(100.0 * i)
    assert rec.summary().count == 16 and rec.summary(after_ns=300.0).count == 13
    assert len(rec.windowed(400.0, 1600.0)) == 4
    assert hist.summary()["count"] == 16 and hist.percentile(50) == 17.5
    assert reg.as_dict()["gauges"]["depth"] == {"samples": 16, "mean": 7.5,
                                                "max": 15.0}
    rec.record(1600.0, 1.0)
    hist.observe(1.0)

    for a, before in zip(taken, copies):
        np.testing.assert_array_equal(a, before)
    assert values == [10.0 + i for i in range(8)]
    assert series == {"depth": [(100.0 * i, float(i)) for i in range(8)]}
    assert len(reg.series["depth"]) == 16
    assert reg.series["late"] == [(100.0 * i, 92.0 + i) for i in range(8, 16)]
