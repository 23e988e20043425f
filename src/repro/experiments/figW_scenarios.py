"""Figure W (extension): tail latency under non-stationary load.

Not a paper figure — the paper's tail-at-scale story is driven by load
*dynamics* (diurnal curves, bursts, flash crowds; Section 3), and this
experiment is where the arrival-profile layer earns its keep:

* **Part 1 — scenario grid**: p99 for one request type per
  DeathStarBench application (SocialNetwork Text, Media MCompose,
  Hotel HSearch) under every named arrival profile at the same mean
  load.  Stationary shapes (poisson/bursty/mmpp) differ only through
  burstiness; non-stationary ones (diurnal/flash/ramp) pay for their
  peaks.  Cached sweep points — re-runs are free.

* **Part 2 — flash crowd**: p99 *through* a flash crowd (windowed over
  the run) on a 4-server cluster, {static, autoscale} x {detailed,
  hybrid}.  The autoscaler must react to the spike (drained baseline
  servers re-activate: scale-ups > 0) and the hybrid fast path must
  never stay committed through the ramp — its profile-aware drift
  guard keeps stationary-burst tolerance without losing the ramp abort
  (an autoscaling cluster is structurally unsafe, so the hybrid cell
  there never commits at all).  In-process runs (figH pattern): the
  hybrid/autoscale introspection has no cacheable form.
"""

from __future__ import annotations

from repro.dc import DcConfig
from repro.experiments.common import QUICK, Settings, format_table
from repro.hybrid import HybridConfig
from repro.runner import execution, run_points
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import UMANYCORE_128
from repro.workloads.arrival import ARRIVAL_NAMES, FlashCrowdProfile
from repro.workloads.deathstar import deathstar_app

#: Reduced-scale server (matches Figures D/F/H/S).
BASE = UMANYCORE_128

#: One request type per DeathStarBench application.
SCENARIO_APPS = ("Text", "MCompose", "HSearch")
SCENARIO_RPS = 5000.0

#: Flash-crowd cell: low baseline (so the autoscaler drains first),
#: then a 5x spike — the drained servers must come back.
FLASH = FlashCrowdProfile(at=0.45, ramp=0.05, hold=0.25, decay=0.10,
                          magnitude=5.0)
FLASH_RPS = 2500.0
FLASH_SERVERS = 4
FLASH_DURATION_S = 0.30
QUICK_FLASH_DURATION_S = 0.04
N_WINDOWS = 8

#: Thresholds sit in this workload's *core*-utilization range: the
#: Text request is storage-bound (~0.7% busy cores per 2500 RPS on the
#: reduced server), so the stock 0.75/0.20 thresholds would never
#: fire.  0.01/0.04 makes the low baseline drain to ~2 servers and the
#: 5x flash (load concentrated on the survivors) cross the add line.
AUTOSCALE_DC = DcConfig(lb="rr", autoscale=True, min_servers=1,
                        autoscale_interval_ns=2_000_000.0,
                        scale_down_util=0.01, scale_up_util=0.04)


def _flash_hybrid(quick: bool) -> HybridConfig:
    """Hybrid knobs that commit within the pre-ramp baseline.

    The baseline span before the ramp is short (45% of the run), so
    quick mode borrows the aggressive figH trial knobs; the full run
    uses defaults with a calibration mass the baseline can supply.
    """
    if quick:
        return HybridConfig(tol=0.5, windows=3, min_samples=5,
                            window_ns=300_000.0, calibration_roots=10)
    return HybridConfig(calibration_roots=300)


def scenario_grid(settings: Settings) -> list:
    """Part 1 rows: (app, profile) -> p99/mean/completed."""
    apps = {name: deathstar_app(name) for name in SCENARIO_APPS}
    from repro.experiments.common import point_for

    points = [point_for(BASE, apps[app], SCENARIO_RPS, settings,
                        arrivals=arrivals)
              for app in SCENARIO_APPS for arrivals in ARRIVAL_NAMES]
    results = run_points(points)
    rows = []
    cells = [(app, arrivals)
             for app in SCENARIO_APPS for arrivals in ARRIVAL_NAMES]
    for (app, arrivals), r in zip(cells, results):
        rows.append([app, arrivals, r.completed, r.rejected,
                     f"{r.mean_ns / 1e3:.1f}", f"{r.p99_ns / 1e3:.1f}",
                     f"{r.summary.tail_to_average:.2f}"])
    return rows


def run_flash_cell(autoscale: bool, hybrid: bool, duration_s: float,
                   quick: bool, seed: int = 1) -> dict:
    """One Part 2 cell: in-process flash-crowd run with introspection."""
    check = None
    if execution().check:
        from repro.check import CheckContext

        check = CheckContext(strict=True)
    sim = ClusterSimulation(
        BASE, deathstar_app("Text"), rps_per_server=FLASH_RPS,
        n_servers=FLASH_SERVERS, duration_s=duration_s, seed=seed,
        warmup_fraction=0.0, arrivals=FLASH, check=check,
        dc=AUTOSCALE_DC if autoscale else None,
        hybrid=_flash_hybrid(quick) if hybrid else None)
    sim.run()
    horizon_ns = duration_s * 1e9
    windows = sim.recorder.windowed(horizon_ns / N_WINDOWS, horizon_ns)
    out = {
        "autoscale": autoscale,
        "hybrid": hybrid,
        "completed": len(sim.recorder),
        "offered": sim.offered,
        "windows": windows,
        "scale_ups": sim.autoscaler.scale_ups if sim.autoscaler else 0,
        "scale_downs": sim.autoscaler.scale_downs if sim.autoscaler else 0,
        "hybrid_stats": sim.hybrid.stats() if sim.hybrid else None,
    }
    if sim.hybrid is not None:
        hs = out["hybrid_stats"]
        ramp0_ns, ramp1_ns = (f * 1e9 for f in FLASH.ramp_span(duration_s))
        # "Committed through the ramp" = still in COMMITTED state at the
        # end of a run whose last abort (if any) precedes the ramp; the
        # guard must instead abort at/after the ramp onset.
        aborted_in_ramp = any(t >= ramp0_ns for t, __ in hs["abort_log"])
        committed_at = hs["committed_at_ns"]
        out["committed_pre_ramp"] = (committed_at is not None
                                     and committed_at < ramp0_ns)
        out["survived_ramp_committed"] = (hs["state"] == "committed"
                                          and not aborted_in_ramp
                                          and committed_at is not None
                                          and committed_at < ramp0_ns)
        out["aborted_in_ramp"] = aborted_in_ramp
    return out


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    settings = QUICK if quick else Settings()

    print(f"Figure W: non-stationary arrival scenarios "
          f"({settings.n_servers} server(s), {settings.duration_s:g} s, "
          f"{SCENARIO_RPS:g} RPS/server)\n")
    print("Part 1 — p99 by application x arrival profile (same mean "
          "load; stationary profiles pay for burstiness, non-stationary "
          "ones for their peaks):\n")
    print(format_table(
        ["app", "arrivals", "completed", "rejected", "mean us", "p99 us",
         "tail/avg"], scenario_grid(settings)))

    duration = QUICK_FLASH_DURATION_S if quick else FLASH_DURATION_S
    window_ms = duration * 1e3 / N_WINDOWS
    ramp0_s, ramp1_s = FLASH.ramp_span(duration)
    print(f"\nPart 2 — p99 through a {FLASH.magnitude:g}x flash crowd "
          f"({FLASH_SERVERS} servers, {FLASH_RPS:g} RPS/server baseline, "
          f"{duration:g} s, ramp at {ramp0_s * 1e3:.1f}-"
          f"{ramp1_s * 1e3:.1f} ms; per-window p99 in us, "
          f"{window_ms:.1f} ms windows):\n")
    rows = []
    notes = []
    for autoscale in (False, True):
        for hybrid in (False, True):
            cell = run_flash_cell(autoscale, hybrid, duration, quick)
            label = (("autoscale" if autoscale else "static") + " / "
                     + ("hybrid" if hybrid else "detailed"))
            row = [label, cell["completed"]]
            row += [(f"{w.p99 / 1e3:.0f}" if w.count else "-")
                    for w in cell["windows"]]
            if autoscale:
                row.append(f"{cell['scale_ups']}u/{cell['scale_downs']}d")
            else:
                row.append("-")
            if hybrid:
                hs = cell["hybrid_stats"]
                row.append(f"{hs['state']}, {hs['aborts']} aborts")
                if cell["survived_ramp_committed"]:
                    notes.append(f"  WARNING {label}: hybrid stayed "
                                 f"committed through the ramp")
                elif cell["committed_pre_ramp"]:
                    notes.append(f"  {label}: committed pre-ramp, then "
                                 + ("aborted in the ramp"
                                    if cell["aborted_in_ramp"]
                                    else "recalibrated"))
                else:
                    notes.append(f"  {label}: never committed "
                                 f"(state {hs['state']})")
            else:
                row.append("-")
            if autoscale and cell["scale_ups"] == 0:
                notes.append(f"  WARNING {label}: autoscaler never "
                             f"reacted to the flash")
            rows.append(row)
    headers = (["cell", "completed"]
               + [f"w{i}" for i in range(N_WINDOWS)]
               + ["scale", "hybrid"])
    print(format_table(headers, rows))
    for note in notes:
        print(note)
    print("\nThe flash crowd lands mid-run: static cells absorb it in "
          "queueing (the p99 spike), the autoscaler re-activates the "
          "servers it drained during the low baseline, and the hybrid "
          "drift guard — widened for stationary burstiness but sharp "
          "for genuine non-stationarity — aborts the fast path on the "
          "ramp instead of freezing a stale steady-state model.")
