"""Run every experiment and print all paper-figure tables.

``python -m repro.experiments.run_all [--quick] [--jobs N] [--no-cache]
[--resume] [--check]``

``--quick`` uses reduced scales (useful for smoke-testing the harness);
the default takes tens of minutes and produces the numbers recorded in
EXPERIMENTS.md.  ``--jobs N`` fans the independent simulation points of
each figure over N worker processes; the printed tables are identical
for any jobs count.  Results are cached on disk (see
:mod:`repro.runner`) keyed by configuration *and* code version, so a
re-run after an interrupt — or a second full run — only simulates what
changed; ``--no-cache`` forces everything to recompute and ``--resume``
additionally skips whole sections that a previous run with the same
settings already printed.
"""

from __future__ import annotations

import argparse
import inspect
import time

from repro.experiments import (
    fig01_microarch,
    fig02_rps_cdf,
    fig03_queues,
    fig04_cpu_util,
    fig05_rpc_count,
    fig06_context_switch,
    fig07_icn_contention,
    fig08_footprint,
    fig09_hit_rates,
    fig14_tail_latency,
    fig15_breakdown,
    fig16_avg_latency,
    fig17_tail_to_avg,
    fig18_throughput,
    fig19_sensitivity,
    fig20_synthetic,
    figD_datacenter,
    figH_hybrid,
    figS_policies,
    figW_scenarios,
    power_area,
    sec68_iso_area,
)
from repro.experiments.common import Settings, set_hybrid_override
from repro.runner import ResultCache, code_version, digest, executing, \
    fingerprint

SECTIONS = [
    ("Figure 1", fig01_microarch.main),
    ("Figure 2", fig02_rps_cdf.main),
    ("Figure 3", fig03_queues.main),
    ("Figure 4", fig04_cpu_util.main),
    ("Figure 5", fig05_rpc_count.main),
    ("Figure 6", fig06_context_switch.main),
    ("Figure 7", fig07_icn_contention.main),
    ("Figure 8", fig08_footprint.main),
    ("Figure 9", fig09_hit_rates.main),
    ("Figures 14/16/17", None),  # share one matrix; run via wrappers below
    ("Figure 15", fig15_breakdown.main),
    ("Figure 18", fig18_throughput.main),
    ("Figure 19", fig19_sensitivity.main),
    ("Figure 20", fig20_synthetic.main),
    ("Section 6.8", sec68_iso_area.main),
    ("Power & area", power_area.main),
    # Appended last so earlier sections' output stays a stable prefix.
    ("Figure S (policies)", figS_policies.main),
    ("Figure D (datacenter)", figD_datacenter.main),
    ("Figure H (hybrid)", figH_hybrid.main),
    ("Figure W (scenarios)", figW_scenarios.main),
]


def _section_marker(cache: ResultCache, title: str,
                    settings: Settings):
    """Path of the done-marker for one section under these settings."""
    key = digest({"code": code_version(), "settings": fingerprint(settings),
                  "title": title})
    return cache.root / "sections" / f"{key}.done"


def _run_section(title, runner, settings) -> None:
    if runner is None:
        fig14_tail_latency.main(settings=settings, progress=False)
        fig16_avg_latency.main(settings=settings, progress=False)
        fig17_tail_to_avg.main(settings=settings, progress=False)
    elif "settings" in inspect.signature(runner).parameters:
        runner(settings=settings)
    else:
        runner()


def main(quick: bool = False, jobs: int = 1, use_cache: bool = True,
         resume: bool = False, check: bool = False) -> None:
    """Print every figure table.

    Args:
        quick: Use reduced scales (the ``--quick`` smoke configuration).
        jobs: Worker processes for the simulation sweeps (1 = serial).
        use_cache: Consult/populate the on-disk result cache.
        resume: Skip sections a previous same-settings run completed
            (their tables are *not* reprinted); requires the cache.
        check: Run every simulation point under the strict invariant
            sanitizer (:mod:`repro.check`); forces the cache off so
            every point actually executes and is verified.
    """
    if check:
        use_cache = False
        resume = False
    if resume and not use_cache:
        raise SystemExit("--resume requires the result cache "
                         "(drop --no-cache)")
    settings = Settings(n_servers=1, duration_s=0.02) if quick else Settings()
    cache = ResultCache() if use_cache else None
    start = time.time()
    with executing(jobs=jobs, cache=cache, check=check):
        for title, runner in SECTIONS:
            marker = _section_marker(cache, title, settings) if cache else None
            if resume and marker is not None and marker.exists():
                print(f"\n[{title} skipped: done in a previous run "
                      f"(--resume)]", flush=True)
                continue
            print(f"\n{'=' * 72}\n{title}\n{'=' * 72}", flush=True)
            t0 = time.time()
            _run_section(title, runner, settings)
            print(f"[{title} done in {time.time() - t0:.0f}s]", flush=True)
            if marker is not None:
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.touch()
    print(f"\ntotal: {time.time() - start:.0f}s")
    if cache is not None:
        s = cache.stats()
        print(f"cache: {s['hits']} hits, {s['misses']} misses "
              f"({s['dir']})")


def parse_args(argv=None) -> argparse.Namespace:
    """Build and run the ``run_all`` argument parser."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="regenerate every paper-figure table")
    ap.add_argument("--quick", action="store_true",
                    help="reduced scales (smoke-test the harness)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="simulation worker processes (default 1)")
    ap.add_argument("--no-cache", action="store_true",
                    help="recompute everything; skip the on-disk "
                         "result cache")
    ap.add_argument("--resume", action="store_true",
                    help="skip sections completed by a previous run "
                         "with the same settings and code")
    ap.add_argument("--check", action="store_true",
                    help="run every simulation point under the "
                         "invariant sanitizer (implies --no-cache; "
                         "any violation aborts)")
    ap.add_argument("--hybrid", action="store_true",
                    help="arm the repro.hybrid fast path on every "
                         "sweep point (results are approximate; "
                         "Figure H quantifies the error)")
    ap.add_argument("--hybrid-tol", dest="hybrid_tol", type=float,
                    default=0.2, metavar="T",
                    help="steady-state tolerance for --hybrid "
                         "(default 0.2)")
    return ap.parse_args(argv)


if __name__ == "__main__":
    _args = parse_args()
    if _args.hybrid:
        from repro.hybrid import HybridConfig

        set_hybrid_override(HybridConfig(tol=_args.hybrid_tol))
    main(quick=_args.quick, jobs=_args.jobs,
         use_cache=not _args.no_cache, resume=_args.resume,
         check=_args.check)
