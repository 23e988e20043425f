"""Run every experiment and print all paper-figure tables.

``python -m repro experiment all [flags]`` runs this harness
(docs/CLI.md): ``--quick`` uses reduced scales (useful for
smoke-testing the harness); the default takes tens of minutes and
produces the numbers recorded in EXPERIMENTS.md.  ``--jobs N`` fans the
independent simulation points of each figure over N worker processes;
the printed tables are identical for any jobs count.  Results are
cached on disk (see :mod:`repro.runner`) keyed by configuration *and*
code version, so a re-run after an interrupt — or a second full run —
only simulates what changed; ``--no-cache`` forces everything to
recompute and ``--resume`` additionally skips whole sections that a
previous run at the same scale already printed.
"""

from __future__ import annotations

import importlib
import time
from itertools import groupby
from operator import itemgetter

from repro.experiments import FIGURES
from repro.runner import ResultCache, code_version, digest, execution

#: ``(title, figure modules)`` per section, in print order.
SECTIONS = [(title, [module for __, module, __title in figures])
            for title, figures in groupby(FIGURES, key=itemgetter(2))
            if title is not None]


def _section_marker(cache: ResultCache, title: str, quick: bool):
    """Path of the done-marker for one section at this scale."""
    key = digest({"code": code_version(), "quick": quick, "title": title})
    return cache.root / "sections" / f"{key}.done"


def main(quick: bool = False, resume: bool = False) -> None:
    """Print every figure table under the active execution context.

    Jobs, cache, check and the policy/hybrid overrides come from
    :func:`repro.runner.execution` (``repro experiment all`` sets them).

    Args:
        quick: Use reduced scales (the ``--quick`` smoke configuration);
            passed unchanged to every figure's ``main``.
        resume: Skip sections a previous same-scale run completed
            (their tables are *not* reprinted); requires the cache.
    """
    cache = execution().cache
    if resume and cache is None:
        raise SystemExit("--resume requires the result cache "
                         "(drop --no-cache)")
    start = time.time()
    for title, modules in SECTIONS:
        marker = (_section_marker(cache, title, quick)
                  if cache is not None else None)
        if resume and marker is not None and marker.exists():
            print(f"\n[{title} skipped: done in a previous run "
                  f"(--resume)]", flush=True)
            continue
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}", flush=True)
        t0 = time.time()
        for module in modules:
            importlib.import_module(
                f"repro.experiments.{module}").main(quick=quick)
        print(f"[{title} done in {time.time() - t0:.0f}s]", flush=True)
        if marker is not None:
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()
    print(f"\ntotal: {time.time() - start:.0f}s")
    if cache is not None:
        s = cache.stats()
        print(f"cache: {s['hits']} hits, {s['misses']} misses "
              f"({s['dir']})")
