"""Run every experiment and print all paper-figure tables.

``python -m repro.experiments.run_all [flags]`` is an alias of
``python -m repro experiment all [flags]`` and takes the same flags
(docs/CLI.md): ``--quick`` uses reduced scales (useful for
smoke-testing the harness); the default takes tens of minutes and
produces the numbers recorded in EXPERIMENTS.md.  ``--jobs N`` fans the
independent simulation points of each figure over N worker processes;
the printed tables are identical for any jobs count.  Results are
cached on disk (see :mod:`repro.runner`) keyed by configuration *and*
code version, so a re-run after an interrupt — or a second full run —
only simulates what changed; ``--no-cache`` forces everything to
recompute and ``--resume`` additionally skips whole sections that a
previous run with the same settings already printed.
"""

from __future__ import annotations

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
from repro.experiments.common import QUICK, Settings
from repro.runner import ResultCache, code_version, digest, execution, \
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


def main(quick: bool = False, resume: bool = False) -> None:
    """Print every figure table under the active execution context.

    Jobs, cache, check and the policy/hybrid overrides come from
    :func:`repro.runner.execution` (``repro experiment all`` sets them).

    Args:
        quick: Use reduced scales (the ``--quick`` smoke configuration).
        resume: Skip sections a previous same-settings run completed
            (their tables are *not* reprinted); requires the cache.
    """
    cache = execution().cache
    if resume and cache is None:
        raise SystemExit("--resume requires the result cache "
                         "(drop --no-cache)")
    settings = QUICK if quick else Settings()
    start = time.time()
    for title, runner in SECTIONS:
        marker = (_section_marker(cache, title, settings)
                  if cache is not None else None)
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


if __name__ == "__main__":
    import sys

    from repro.cli import main as cli_main

    cli_main(["experiment", "all", *sys.argv[1:]])
