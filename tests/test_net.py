"""Tests for NICs, the ServiceMap dispatcher and the inter-server fabric."""

import numpy as np
import pytest

from repro.net import (
    FabricConfig,
    InterServerFabric,
    LNic,
    NicConfig,
    RNic,
    StorageBackend,
    TopLevelNic,
)
from repro.sim import Engine


def test_lnic_serializes_messages():
    eng = Engine()
    nic = LNic(eng, NicConfig(rpc_processing_ns=100.0, bytes_per_ns=100.0))
    done = []
    nic.process(1000, lambda: done.append(eng.now))
    nic.process(1000, lambda: done.append(eng.now))
    eng.run()
    assert done == [pytest.approx(110.0), pytest.approx(220.0)]
    assert nic.messages == 2


def test_rnic_pays_transport_overhead():
    eng = Engine()
    lnic = LNic(eng, NicConfig())
    rnic = RNic(eng, NicConfig(transport_overhead_ns=200.0))
    times = {}
    lnic.process(512, lambda: times.__setitem__("l", eng.now))
    rnic.process(512, lambda: times.__setitem__("r", eng.now))
    eng.run()
    assert times["r"] == pytest.approx(times["l"] + 200.0)


def test_service_map_round_robin():
    nic = TopLevelNic(Engine())
    nic.register_instance("svc", 3)
    nic.register_instance("svc", 7)
    nic.register_instance("svc", 3)      # duplicate ignored
    picks = [nic.pick_village("svc") for __ in range(4)]
    assert picks == [3, 7, 3, 7]
    assert nic.villages_for("svc") == [3, 7]


def test_service_map_round_robin_skips_down_villages():
    nic = TopLevelNic(Engine())
    for v in (3, 7):
        nic.register_instance("svc", v)
    nic.mark_village_down(3)
    assert [nic.pick_village("svc") for __ in range(3)] == [7, 7, 7]
    nic.mark_village_down(7)
    with pytest.raises(KeyError):
        nic.pick_village("svc")


def test_service_map_rotation_survives_down_up_cycle():
    """The round-robin pointer rotates over the registered list, so a
    village going down and back up does not skew which instance the
    rotation hands out next.  The pre-fix code advanced the pointer over
    the *filtered* list, so after 0 recovered here the next pick was 2
    (skipping 0 entirely for a whole cycle)."""
    nic = TopLevelNic(Engine())
    for v in (0, 1, 2):
        nic.register_instance("svc", v)
    nic.mark_village_down(0)
    assert [nic.pick_village("svc") for __ in range(2)] == [1, 2]
    nic.mark_village_up(0)
    assert nic.pick_village("svc") == 0    # rotation resumes where it was


def test_service_map_exclude_prefers_alternative():
    nic = TopLevelNic(Engine())
    for v in (1, 2):
        nic.register_instance("svc", v)
    assert all(nic.pick_village("svc", exclude=1) == 2 for __ in range(4))
    # With a single instance the exclusion cannot be honoured.
    nic.register_instance("solo", 5)
    assert nic.pick_village("solo", exclude=5) == 5


def test_service_map_deregister():
    nic = TopLevelNic(Engine())
    nic.register_instance("svc", 1)
    nic.deregister_instance("svc", 1)
    with pytest.raises(KeyError):
        nic.pick_village("svc")


def test_unknown_service_raises():
    with pytest.raises(KeyError):
        TopLevelNic(Engine()).pick_village("ghost")


def test_nic_buffering_and_rejection():
    nic = TopLevelNic(Engine(), buffer_capacity=2)
    assert nic.try_buffer("a") and nic.try_buffer("b")
    assert not nic.try_buffer("c")
    assert nic.rejected == 1
    assert nic.drain_buffered() == "a"
    assert nic.buffered == 1


def test_nic_overflow_buffer_then_reject_then_recover():
    """Section 4.3 overflow path: fill the buffer, reject while full,
    drain FIFO back to empty, then accept again."""
    nic = TopLevelNic(Engine(), buffer_capacity=3)
    for item in ("a", "b", "c"):
        assert nic.try_buffer(item)
    assert nic.buffered == 3
    # Every attempt against a full buffer is a distinct rejection.
    assert not nic.try_buffer("d")
    assert not nic.try_buffer("e")
    assert nic.rejected == 2
    # Drain is FIFO and returns None once empty (not an exception).
    assert [nic.drain_buffered() for __ in range(4)] == \
        ["a", "b", "c", None]
    assert nic.buffered == 0
    # A drained buffer accepts again; past rejections stay counted.
    assert nic.try_buffer("f")
    assert nic.rejected == 2


def test_nic_zero_capacity_buffer_rejects_everything():
    nic = TopLevelNic(Engine(), buffer_capacity=0)
    assert not nic.try_buffer("a")
    assert nic.rejected == 1 and nic.buffered == 0
    assert nic.drain_buffered() is None


def test_rnic_default_config_includes_transport_overhead():
    """RNic() without a config models the lossy-network transport cost
    (200ns); an explicit config takes whatever overhead it specifies,
    including zero."""
    assert RNic(Engine()).config.transport_overhead_ns == 200.0
    assert RNic(Engine(), NicConfig()).config.transport_overhead_ns == 0.0
    eng = Engine()
    lnic = LNic(eng)
    rnic = RNic(eng)
    times = {}
    lnic.process(512, lambda: times.__setitem__("l", eng.now))
    rnic.process(512, lambda: times.__setitem__("r", eng.now))
    eng.run()
    assert times["r"] == pytest.approx(times["l"] + 200.0)


def test_rnic_transport_overhead_serializes_with_port():
    """Overhead is part of the port service time, so back-to-back
    messages pay it back-to-back (no pipelining through the port)."""
    eng = Engine()
    rnic = RNic(eng, NicConfig(rpc_processing_ns=100.0,
                               bytes_per_ns=100.0,
                               transport_overhead_ns=200.0))
    done = []
    rnic.process(1000, lambda: done.append(eng.now))
    rnic.process(1000, lambda: done.append(eng.now))
    eng.run()
    per_msg = 100.0 + 200.0 + 10.0
    assert done == [pytest.approx(per_msg), pytest.approx(2 * per_msg)]


def test_nics_emit_dispatch_spans_when_traced():
    from repro.telemetry import Tracer

    eng = Engine()
    eng.tracer = Tracer()
    lnic = LNic(eng, NicConfig(), name="v0.lnic")
    top = TopLevelNic(eng, NicConfig(), name="tnic")
    lnic.process(512, lambda: None)
    top.process(512, lambda: None)
    eng.run()
    spans = {(s.track, s.category) for s in eng.tracer.spans}
    assert ("v0.lnic", "nic_dispatch") in spans
    assert ("tnic", "nic_dispatch") in spans
    assert all(s.duration_ns > 0 for s in eng.tracer.spans)


def test_fabric_latency_and_serialization():
    eng = Engine()
    fabric = InterServerFabric(
        eng, 2, FabricConfig(one_way_latency_ns=500.0, bytes_per_ns=200.0))
    done = []
    fabric.send(0, 1, 2000, lambda: done.append(eng.now))
    eng.run()
    assert done == [pytest.approx(500.0 + 10.0)]


def test_fabric_egress_contention():
    eng = Engine()
    fabric = InterServerFabric(eng, 2)
    done = []
    for __ in range(2):
        fabric.send(0, 1, 20_000, lambda: done.append(eng.now))
    eng.run()
    assert done[1] - done[0] == pytest.approx(100.0)  # second serializes


def test_fabric_validation():
    with pytest.raises(ValueError):
        InterServerFabric(Engine(), 0)


def test_storage_latency_distribution():
    eng = Engine()
    storage = StorageBackend(eng, np.random.default_rng(0),
                             FabricConfig(storage_mean_ns=100_000.0,
                                          storage_cv=1.2))
    latencies = []
    for __ in range(3000):
        storage.access(latencies.append)
    eng.run()
    assert np.mean(latencies) == pytest.approx(100_000.0, rel=0.1)
    assert np.percentile(latencies, 99) > 3 * np.mean(latencies)
    assert storage.accesses == 3000
