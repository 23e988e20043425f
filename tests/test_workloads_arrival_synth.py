"""Tests for arrivals, synthetic apps and the Alibaba generator."""

import numpy as np
import pytest

from repro.workloads import (
    SYNTHETIC_DISTRIBUTIONS,
    AlibabaTraceGenerator,
    arrival_times,
    synthetic_app,
)


# ----------------------------------------------------------------- arrivals

def test_poisson_rate():
    rng = np.random.default_rng(0)
    times = arrival_times(50_000, 1.0, rng)
    assert len(times) == pytest.approx(50_000, rel=0.05)
    assert times[-1] < 1e9


def test_arrival_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        arrival_times(100, 0, rng)


def test_arrivals_reproducible():
    a = arrival_times(1000, 0.5, np.random.default_rng(5))
    b = arrival_times(1000, 0.5, np.random.default_rng(5))
    assert (a == b).all()


# ---------------------------------------------------------------- synthetic

def test_synthetic_app_structure():
    app = synthetic_app("exponential", blocking_calls=3)
    spec = app.services[app.root]
    assert spec.n_segments == 4
    assert all(c.is_storage for c in spec.calls)


def test_synthetic_distributions_mean():
    rng = np.random.default_rng(1)
    for dist in SYNTHETIC_DISTRIBUTIONS:
        app = synthetic_app(dist, mean_service_us=50.0, blocking_calls=4)
        spec = app.services[app.root]
        totals = [sum(spec.sample_segments(rng)) for __ in range(4000)]
        expected = spec.segment_instructions * spec.n_segments
        assert np.mean(totals) == pytest.approx(expected, rel=0.08), dist


def test_bimodal_has_two_modes():
    rng = np.random.default_rng(2)
    app = synthetic_app("bimodal")
    spec = app.services[app.root]
    totals = np.array([sum(spec.sample_segments(rng)) for __ in range(2000)])
    assert len(np.unique(np.round(totals))) == 2
    assert totals.max() / totals.min() == pytest.approx(10.0, rel=0.01)


def test_lognormal_heavier_tail_than_exponential():
    rng = np.random.default_rng(3)

    def p99_over_mean(dist):
        spec = synthetic_app(dist).services[f"synthetic-{dist}"]
        totals = np.array([sum(spec.sample_segments(rng)) for __ in range(20000)])
        return np.percentile(totals, 99) / totals.mean()

    assert p99_over_mean("lognormal") > p99_over_mean("exponential")


def test_synthetic_validation():
    with pytest.raises(ValueError):
        synthetic_app("uniform")
    with pytest.raises(ValueError):
        synthetic_app("exponential", blocking_calls=1)
    with pytest.raises(ValueError):
        synthetic_app("exponential", blocking_calls=7)


# ------------------------------------------------------------------ alibaba

@pytest.fixture(scope="module")
def summary():
    gen = AlibabaTraceGenerator(np.random.default_rng(7))
    return gen.summary(n=200_000)


def test_alibaba_rps_marginals(summary):
    """Figure 2: median ~500 RPS; ~20% >= 1000; ~5% >= 1500."""
    assert summary["rps_median"] == pytest.approx(500, rel=0.05)
    assert 0.12 < summary["rps_frac_ge_1000"] < 0.25
    assert 0.03 < summary["rps_frac_ge_1500"] < 0.10


def test_alibaba_util_marginals(summary):
    """Figure 4: median ~14%; 99% of requests below 60%."""
    assert summary["util_median"] == pytest.approx(0.14, rel=0.08)
    assert summary["util_p99"] <= 0.65


def test_alibaba_rpc_marginals(summary):
    """Figure 5: median ~4.2 RPCs; ~5% >= 16."""
    assert 3.5 <= summary["rpc_median"] <= 5.0
    assert 0.03 < summary["rpc_frac_ge_16"] < 0.08


def test_alibaba_duration_marginals(summary):
    """Section 3.3: 36.7% < 1 ms; geomean of the rest ~2.8 ms."""
    assert summary["dur_frac_lt_1ms"] == pytest.approx(0.367, abs=0.02)
    assert summary["dur_geomean_ge_1ms"] == pytest.approx(2.8, rel=0.08)


def test_cdf_helper():
    from repro.workloads.alibaba import cdf

    values = np.array([1.0, 2.0, 3.0, 4.0])
    grid = np.array([0.0, 2.5, 10.0])
    assert list(cdf(values, grid)) == [0.0, 0.5, 1.0]
