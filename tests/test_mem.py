"""Tests for the memory substrate: footprints and the memory pool."""

import numpy as np
import pytest

from repro.mem import (
    FootprintModel,
    MemoryPool,
    MemoryPoolConfig,
    sharing,
)
from repro.sim import Engine


# --------------------------------------------------------------- footprints

@pytest.fixture
def fpm():
    return FootprintModel(np.random.default_rng(0))


def test_handler_footprint_size_near_half_mb(fpm):
    """Section 3.5: handler memory footprint averages ~0.5 MB."""
    sizes = [fpm.handler_footprint().data_bytes for __ in range(20)]
    assert 0.2e6 < np.mean(sizes) < 0.7e6


def test_handler_handler_sharing_in_paper_range(fpm):
    """Figure 8: 78-99% of pages/lines common between two handlers."""
    reports = []
    for __ in range(10):
        a, b = fpm.handler_footprint(), fpm.handler_footprint()
        reports.append(sharing(a, b))
    for key in ("d_page", "d_line", "i_page", "i_line"):
        mean = np.mean([getattr(r, key) for r in reports])
        assert 0.70 <= mean <= 1.0, (key, mean)


def test_handler_init_sharing_in_paper_range(fpm):
    init = fpm.init_footprint()
    reports = [sharing(fpm.handler_footprint(), init) for __ in range(10)]
    for key in ("d_page", "d_line", "i_page", "i_line"):
        mean = np.mean([getattr(r, key) for r in reports])
        assert 0.70 <= mean <= 1.0, (key, mean)


def test_instruction_sharing_higher_than_data(fpm):
    a, b = fpm.handler_footprint(), fpm.handler_footprint()
    rep = sharing(a, b)
    assert rep.i_page >= rep.d_page - 0.05


def test_footprint_validation():
    with pytest.raises(ValueError):
        FootprintModel(np.random.default_rng(0), shared_data_page_fraction=1.5)


# -------------------------------------------------------------- memory pool

def test_snapshot_store_and_capacity():
    eng = Engine()
    pool = MemoryPool(eng, MemoryPoolConfig(capacity_mb=32))
    assert pool.store_snapshot("svc", 16 * 1024 * 1024)
    assert pool.has_snapshot("svc")
    assert not pool.store_snapshot("big", 20 * 1024 * 1024)
    pool.evict_snapshot("svc")
    assert pool.store_snapshot("big", 20 * 1024 * 1024)


def test_snapshot_boot_under_10ms_cold_over_300ms():
    """Section 3.5: snapshots cut instance boot from >300 ms to <10 ms."""
    eng = Engine()
    pool = MemoryPool(eng)
    pool.store_snapshot("warm", 16 * 1024 * 1024)
    times = {}
    pool.boot_instance("warm", lambda t: times.__setitem__("warm", t))
    pool.boot_instance("cold", lambda t: times.__setitem__("cold", t))
    eng.run()
    assert times["warm"] < 10e6      # < 10 ms in ns
    assert times["cold"] >= 300e6    # >= 300 ms
    assert pool.snapshot_boots == 1 and pool.cold_boots == 1


def test_snapshot_reads_serialize_on_lmem():
    eng = Engine()
    cfg = MemoryPoolConfig(read_bandwidth_bytes_per_ns=1.0,
                           snapshot_boot_overhead_ms=0.0, access_latency_ns=0.0)
    pool = MemoryPool(eng, cfg)
    pool.store_snapshot("svc", 1000)
    done = []
    pool.boot_instance("svc", done.append)
    pool.boot_instance("svc", done.append)
    eng.run()
    assert done[0] == pytest.approx(1000.0)
    assert done[1] == pytest.approx(2000.0)   # queued behind the first copy


def test_snapshot_size_validation():
    pool = MemoryPool(Engine())
    with pytest.raises(ValueError):
        pool.store_snapshot("svc", 0)
