"""The benchmark's five workloads, built only through repro's public API.

Each workload function takes a seed offset (offset 0 gives the seeds named in
README.md; a workload with several cells moves every cell's seed by a
multiple of it, so offsets never share a seed; ``flash_hybrid`` alone
ignores it, see there), the smoke flag
(horizons of 10 ms or less), the reference flag (the ``flash_hybrid``
cells with the fast path off), a scratch directory and the clock to
time with.  It builds and runs its simulations and returns an
:class:`Outcome`; construction and run times are taken around it by
``child.py``.

Arrivals are open-loop at the stated rates; the benchmark itself runs
one simulation at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.experiments.figF_faults import pick_links
from repro.experiments.figW_scenarios import AUTOSCALE_DC, FLASH
from repro.faults import FaultSchedule, ResilienceConfig
from repro.hybrid import HybridConfig
from repro.runner import ResultCache, SweepPoint, run_points
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import SCALEOUT, SERVERCLASS, UMANYCORE
from repro.workloads.deathstar import deathstar_app

#: Host-time clock in seconds (``child.py`` passes one that skips the
#: host-speed sampler's ticks).
Clock = Callable[[], float]

#: Reduced-scale server shared by four of the five workloads.
UM128 = replace(UMANYCORE, n_cores=128, n_clusters=8)


@dataclass
class Outcome:
    """What one workload run hands back for checking and reporting."""

    #: One RunResult per simulated cell, in a fixed order.
    results: list
    #: Host time of a pass that builds *and* runs the cells, for
    #: workloads whose run phase is more than their ``run()`` calls
    #: (``system_mix``: the cold ``run_points`` pass, runner included).
    #: ``child.py`` subtracts construction time from it; None means the
    #: run phase is the sum of ``run()`` calls.
    pass_s: Optional[float] = None
    #: Workload-specific counters (runner cache hits, warm pass time).
    counters: Dict[str, float] = field(default_factory=dict)


def steady_hot(seed: int, smoke: bool, reference: bool,
               workdir: Path, clock: Clock) -> Outcome:
    """Detailed kernel at a high stable load (60 K RPS, one server).

    75 K RPS (the engine gate's point) builds a backlog over a long
    horizon; 60 K stays stable, so run time scales with the horizon.
    """
    sim = ClusterSimulation(UM128, deathstar_app("Text"),
                            rps_per_server=60_000.0, n_servers=1,
                            duration_s=0.005 if smoke else 0.15,
                            seed=11 + seed)
    return Outcome([sim.run()])


def _flash(seed: int, smoke: bool, **kwargs) -> ClusterSimulation:
    """The figW Part 2 flash-crowd cell: 4 servers, Text, 2500 RPS each."""
    return ClusterSimulation(UM128, deathstar_app("Text"),
                             rps_per_server=2500.0, n_servers=4,
                             duration_s=0.01 if smoke else 0.30,
                             seed=seed, warmup_fraction=0.0,
                             arrivals=FLASH, **kwargs)


#: The ``flash_hybrid`` cells, pooled as figH pools its cells.
HYBRID_SEEDS = (1, 2, 3)


def flash_hybrid(seed: int, smoke: bool, reference: bool,
                 workdir: Path, clock: Clock) -> Outcome:
    """Static flash cell with the hybrid fast path and metrics sampling,
    over seeds 1, 2 and 3 whatever the seed offset.

    How much work a cell does is a step function of its seed: the
    detector commits after a whole number of telemetry windows, each
    worth about 25 K events, and now and then a cell never recommits
    after the ramp.  Over seeds 1-33 one cell took 153 K-295 K events,
    and three pooled cells at offsets 1-10 still spread by 9% (Q3 - Q1
    over the median), as much as the host-time noise this benchmark
    must resolve.  So the cells stay fixed and the runs of this
    workload differ only by the host.  With ``reference`` the same cells
    run fully detailed; their pooled p99 is the yardstick for the fast
    path's tail error.
    """
    hybrid = None if reference else HybridConfig(calibration_roots=300)
    return Outcome([_flash(s, smoke, hybrid=hybrid, metrics_interval_ns=1e6)
                    .run() for s in HYBRID_SEEDS])


def flash_autoscale(seed: int, smoke: bool, reference: bool,
                    workdir: Path, clock: Clock) -> Outcome:
    """Flash cell behind the front-end LB with the reactive autoscaler."""
    sim = _flash(1 + seed, smoke, dc=AUTOSCALE_DC)
    return Outcome([sim.run()])


#: Timeout ~2x the healthy p99, capped backoff, hedging after 1.5 ms.
RESILIENCE = ResilienceConfig(timeout_ns=2_500_000.0, max_retries=3,
                              backoff_base_ns=100_000.0,
                              backoff_cap_ns=800_000.0,
                              hedge_delay_ns=1_500_000.0)


def faults_resilient(seed: int, smoke: bool, reference: bool,
                     workdir: Path, clock: Clock) -> Outcome:
    """Hotel HSearch on 2 servers under a random fail/recover schedule.

    The inventory is every village, four leaf-adjacent links per server
    and the R-NICs of villages 0/4/8/12, failing at 300/s with a 2 ms
    mean repair, so the degraded ICN path and the resilient-call
    wrappers both carry traffic.  The schedule is part of the workload
    (56 events, four of them link outages); the seed drives the
    simulation.
    """
    duration_s = 0.01 if smoke else 0.1
    n_servers = 2
    sim = ClusterSimulation(UM128, deathstar_app("HSearch"),
                            rps_per_server=20_000.0, n_servers=n_servers,
                            duration_s=duration_s, seed=5 + seed)
    servers = range(n_servers)
    schedule = FaultSchedule.random(
        seed=5, duration_ns=duration_s * 1e9,
        villages=[(s, v) for s in servers for v in range(UM128.n_queues)],
        links=[(s, u, v) for s in servers
               for u, v in pick_links(sim.servers[s].topology, 4)],
        nics=[(s, v, "rnic") for s in servers for v in (0, 4, 8, 12)],
        rate_per_s=300.0, mttr_ns=2_000_000.0)
    sim.install_faults(schedule, RESILIENCE)
    return Outcome([sim.run()])


def system_mix(seed: int, smoke: bool, reference: bool,
               workdir: Path, clock: Clock) -> Outcome:
    """Full-scale ScaleOut / ServerClass / uManycore x three apps.

    Runs the nine points through ``run_points`` against an empty result
    cache (cold), then again (warm, all hits).  The servers are full
    1024-core (or 40-core) builds on fat-tree and mesh topologies with
    software context switching, so construction cost and the baselines'
    scheduler paths weigh in.  Each cell has its own seed: with one
    shared seed all nine cells would replay the same arrival draw, and
    the run's cost would swing with that single draw.
    """
    cells = [(config, app) for config in (SCALEOUT, SERVERCLASS, UMANYCORE)
             for app in ("Text", "MCompose", "HSearch")]
    first = 7 + len(cells) * seed
    points = [SweepPoint(config=config, app=deathstar_app(app),
                         rps=5000.0, n_servers=1,
                         duration_s=0.002 if smoke else 0.1, seed=first + i)
              for i, (config, app) in enumerate(cells)]
    cache = ResultCache(workdir / "runner-cache")
    t0 = clock()
    cold = run_points(points, jobs=1, cache=cache, memo=False)
    cold_s = clock() - t0
    misses = cache.misses
    t0 = clock()
    warm = run_points(points, jobs=1, cache=cache, memo=False)
    warm_s = clock() - t0
    if [r.as_dict() for r in warm] != [r.as_dict() for r in cold]:
        raise RuntimeError("warm (cached) results differ from the cold run")
    return Outcome(cold, pass_s=cold_s, counters={
        "runner.cache_hits": cache.hits, "runner.cache_misses": misses,
        "runner.warm_s": warm_s})


#: Benchmark workloads by name, in report order.
WORKLOADS: Dict[str, Callable[[int, bool, bool, Path, Clock], Outcome]] = {
    "steady_hot": steady_hot,
    "flash_hybrid": flash_hybrid,
    "flash_autoscale": flash_autoscale,
    "faults_resilient": faults_resilient,
    "system_mix": system_mix,
}

#: Workloads with a detailed reference cell (tail error of the fast path).
HAS_REFERENCE = ("flash_hybrid",)
