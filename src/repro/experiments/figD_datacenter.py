"""Figure D (extension): the datacenter tier — LB policy vs tail.

Not a paper figure — μManycore's evaluation stops at one rack driven by
independent per-server Poisson processes, but "tail at scale" is a
*cluster* property: a real front end routes every request, placement
decides which servers can answer which RPCs, and autoscalers resize the
serving set.  This experiment drives multi-server μManycore racks
through the :mod:`repro.dc` tier and measures what the paper's
single-server story leaves out:

* **p99 vs cluster size x LB policy** (fault-free): with homogeneous
  servers every stateless policy is close; the spread is the cost of
  routing skew alone.
* **the straggler column**: one server's villages degraded mid-run
  (the classic gray failure).  Load-blind round-robin keeps feeding the
  slow server 1/N of all roots; least-outstanding and power-of-two see
  its outstanding count grow and route around it — the Tail-at-Scale
  result that load-aware routing beats static spreading exactly when
  servers stop being identical.
* **an autoscale drain**: a lightly-loaded cluster scales down to its
  floor; the :mod:`repro.check` LB conservation ledger proves no
  request is lost across the drains.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.dc import DcConfig
from repro.experiments.common import Settings, format_table, point_for
from repro.experiments.figF_faults import QUICK_SETTINGS, RESILIENCE, \
    SETTINGS
from repro.faults import FaultSchedule
from repro.runner import run_points
from repro.systems.cluster import RunResult
from repro.systems.configs import UMANYCORE_128
from repro.workloads.deathstar import social_network_app

#: Reduced-scale server (matches Figures F/S; saturates near ~90K RPS).
BASE = UMANYCORE_128

POLICIES = ("rr", "random", "p2c", "least", "affinity")
#: The straggler comparison the extension exists for: load-blind vs
#: load-aware routing around a gray-failed server.
STRAGGLER_POLICIES = ("rr", "p2c", "least")

SIZES = (2, 4, 8)
QUICK_SIZES = (1, 2)
LOAD_RPS = 40_000            # per server; ~45% of saturation
STRAGGLER_RPS = 40_000
STRAGGLER_SERVERS = 4
QUICK_STRAGGLER_SERVERS = 2
STRAGGLER_FACTOR = 10.0      # gray failure: server 0 runs 10x slower
STRAGGLER_AT = 0.25          # strike right at the warm-up boundary

AUTOSCALE_DC = DcConfig(lb="least", autoscale=True, min_servers=1,
                        autoscale_interval_ns=200_000.0,
                        scale_down_util=0.20)
AUTOSCALE_RPS = 2_000        # light load: the cluster should shrink


def _dc_point(settings: Settings, rps: float, n: int, dc: DcConfig,
              **overrides):
    """One dc-mode point at an explicit cluster size (``point_for``
    already consumes ``settings.n_servers``, so override after)."""
    app = social_network_app("Text")
    return replace(point_for(BASE, app, rps, settings, **overrides),
                   n_servers=n, dc=dc)


def straggler_schedule(duration_s: float) -> FaultSchedule:
    """Degrade every village of server 0 by ``STRAGGLER_FACTOR`` at
    ``STRAGGLER_AT`` of the run (the warm-up boundary, no recovery)."""
    sched = FaultSchedule()
    at_ns = STRAGGLER_AT * duration_s * 1e9
    for v in range(BASE.n_queues):
        sched.degrade_village(0, v, at_ns, STRAGGLER_FACTOR)
    return sched


def run(settings: Settings, sizes: Tuple[int, ...],
        straggler_servers: int
        ) -> Dict[Tuple[str, str, int], RunResult]:
    """One run per table cell, keyed ``(table, policy, n_servers)``."""
    points, cells = [], []
    for lb in POLICIES:
        for n in sizes:
            cells.append(("size", lb, n))
            points.append(_dc_point(settings, LOAD_RPS, n, DcConfig(lb=lb)))
    sched = straggler_schedule(settings.duration_s)
    for lb in STRAGGLER_POLICIES:
        cells.append(("straggler", lb, straggler_servers))
        points.append(_dc_point(settings, STRAGGLER_RPS, straggler_servers,
                                DcConfig(lb=lb), faults=sched,
                                resilience=RESILIENCE))
    cells.append(("autoscale", AUTOSCALE_DC.lb, straggler_servers))
    points.append(_dc_point(settings, AUTOSCALE_RPS, straggler_servers,
                            AUTOSCALE_DC))
    return dict(zip(cells, run_points(points)))


def _size_rows(results, sizes):
    rows = []
    for lb in POLICIES:
        for n in sizes:
            r = results[("size", lb, n)]
            dc = r.stats["dc"]
            pooled = dc["pooled"]
            rows.append([lb, n, f"{LOAD_RPS:g}",
                         f"{pooled['p50'] / 1e3:.1f}",
                         f"{pooled['p99'] / 1e3:.1f}",
                         f"{pooled['p999'] / 1e3:.1f}",
                         r.completed,
                         max(dc["routed"]) - min(dc["routed"])])
    return rows


def _straggler_rows(results, n):
    rows = []
    for lb in STRAGGLER_POLICIES:
        r = results[("straggler", lb, n)]
        dc = r.stats["dc"]
        slow = dc["routed"][0]
        rows.append([lb,
                     f"{dc['pooled']['p50'] / 1e3:.1f}",
                     f"{dc['pooled']['p99'] / 1e3:.1f}",
                     f"{r.p99_ns / 1e3:.1f}",
                     r.completed, r.failed,
                     slow, sum(dc["routed"]) - slow,
                     f"{r.availability:.3f}"])
    return rows


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    if quick:
        settings, sizes = QUICK_SETTINGS, QUICK_SIZES
        n_straggler = QUICK_STRAGGLER_SERVERS
    else:
        settings, sizes, n_straggler = SETTINGS, SIZES, STRAGGLER_SERVERS
    results = run(settings, sizes, n_straggler)

    print("Figure D: pooled tail vs cluster size x LB policy "
          f"(fault-free, {LOAD_RPS:g} RPS/server)\n")
    print(format_table(
        ["lb", "servers", "rps/server", "p50 us", "p99 us", "p999 us",
         "completed", "route skew"], _size_rows(results, sizes)))

    print(f"\nFigure D: one straggler server (server 0 degraded "
          f"{STRAGGLER_FACTOR:g}x at {STRAGGLER_AT:.0%} of the run), "
          f"{n_straggler} servers @ {STRAGGLER_RPS:g} RPS/server\n")
    print(format_table(
        ["lb", "p50 us", "p99 us", "p99 all us", "completed", "failed",
         "to straggler", "to healthy", "avail"],
        _straggler_rows(results, n_straggler)))
    rr = results[("straggler", "rr", n_straggler)]
    for lb in STRAGGLER_POLICIES[1:]:
        r = results[("straggler", lb, n_straggler)]
        print(f"  {lb:5s} p99 = {r.p99_ns / rr.p99_ns:5.2f}x rr "
              f"(routed {r.stats['dc']['routed'][0]} to the straggler "
              f"vs rr's {rr.stats['dc']['routed'][0]})")

    a = results[("autoscale", AUTOSCALE_DC.lb, n_straggler)]
    dc = a.stats["dc"]
    print(f"\nFigure D: autoscale drain ({n_straggler} servers @ "
          f"{AUTOSCALE_RPS:g} RPS/server, floor "
          f"{AUTOSCALE_DC.min_servers})\n")
    print(f"  scale downs: {dc['scale_downs']}, scale ups: "
          f"{dc['scale_ups']}, active at end: {dc['active_at_end']}")
    print(f"  routed: {dc['routed']}  "
          f"(offered {a.offered} = answered "
          f"{a.completed + a.rejected + a.failed}; nothing lost "
          f"across drains)")
    print("\nLoad-aware routing (least/p2c) beats static round-robin "
          "exactly when a server goes gray: the straggler's outstanding "
          "count rises and new roots route around it, while rr keeps "
          "feeding it 1/N of all traffic into a growing queue.")
