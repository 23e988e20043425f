"""Ablation benchmarks for design choices DESIGN.md calls out.

These are not paper figures; they probe the design space around the
paper's choices: FCFS vs SRPT dequeue (Section 4.3's discussion),
heterogeneous villages (Section 8), snapshot auto-scaling (Section 4.1),
work stealing, and arrival burstiness (the Figure 2 motivation).
"""

import dataclasses

from repro.systems import UMANYCORE, simulate
from repro.systems.configs import heterogeneous_umanycore
from repro.workloads import SOCIAL_NETWORK_APPS, synthetic_app


def test_ablation_fcfs_vs_srpt(benchmark):
    """Section 4.3: 'SRPT is unlikely to improve much over FCFS' for
    same-service requests; with a bimodal synthetic it can matter more."""
    app = synthetic_app("bimodal", mean_service_us=120.0, blocking_calls=2)

    def run():
        out = {}
        for policy in ("fcfs", "srpt"):
            cfg = dataclasses.replace(UMANYCORE, name=f"uM-{policy}",
                                      rq_policy=policy)
            out[policy] = simulate(cfg, app, rps_per_server=40_000,
                                   n_servers=1, duration_s=0.012, seed=4)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = results["fcfs"].p99_ns / results["srpt"].p99_ns
    # SRPT should not make things dramatically worse, and the difference
    # stays modest — the paper's argument.
    assert 0.5 < ratio < 3.0


def test_ablation_bursty_vs_poisson(benchmark):
    """Figure 2's burstiness is why queues (and their hardware) matter."""
    app = SOCIAL_NETWORK_APPS["Text"]

    def run():
        return {
            kind: simulate(UMANYCORE, app, rps_per_server=15_000,
                           n_servers=1, duration_s=0.012, seed=5,
                           arrivals=kind)
            for kind in ("poisson", "bursty")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results["bursty"].p99_ns > 0.8 * results["poisson"].p99_ns


def test_ablation_heterogeneous_villages(benchmark):
    """Section 8: big villages for leaf services should not hurt, and can
    help the leaf-service request type."""
    app = SOCIAL_NETWORK_APPS["UrlShort"]

    def run():
        return {
            "homogeneous": simulate(UMANYCORE, app, rps_per_server=10_000,
                                    n_servers=1, duration_s=0.012, seed=6),
            "heterogeneous": simulate(heterogeneous_umanycore(0.25), app,
                                      rps_per_server=10_000, n_servers=1,
                                      duration_s=0.012, seed=6),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = results["heterogeneous"].p99_ns / results["homogeneous"].p99_ns
    assert ratio < 1.6


def test_ablation_auto_scaling(benchmark):
    """Section 4.1: snapshot-booted instances absorb overload that would
    otherwise reject requests."""
    base = dataclasses.replace(UMANYCORE, name="uM-tiny", rq_capacity=4,
                               n_cores=64, cores_per_queue=8, n_clusters=8)
    app = SOCIAL_NETWORK_APPS["Text"]

    def run():
        return {
            "static": simulate(base, app, rps_per_server=60_000,
                               n_servers=1, duration_s=0.01, seed=7),
            "autoscale": simulate(
                dataclasses.replace(base, name="uM-tiny-as",
                                    auto_scale=True), app,
                rps_per_server=60_000, n_servers=1, duration_s=0.01,
                seed=7),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results["autoscale"].rejected <= results["static"].rejected


def test_ablation_work_stealing(benchmark):
    """Work stealing across villages under random dispatch (Figure 3's
    remedy for per-core queues)."""
    base = dataclasses.replace(UMANYCORE, name="uM-rand",
                               dispatch="random")
    app = SOCIAL_NETWORK_APPS["SGraph"]

    def run():
        return {
            steal: simulate(dataclasses.replace(
                base, name=f"uM-steal-{steal}", steal=steal), app,
                rps_per_server=30_000, n_servers=1, duration_s=0.01,
                seed=8)
            for steal in ("off", "first")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    # Stealing should not hurt badly under imbalance-prone dispatch.
    assert results["first"].p99_ns < 2.0 * results["off"].p99_ns
