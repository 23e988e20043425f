"""Shared experiment harness: run settings, sweep points, formatting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.runner import SweepPoint
from repro.systems.configs import SystemConfig
from repro.workloads.spec import AppSpec

#: Figure-order list of the 8 SocialNetwork request types.
APP_ORDER = ["Text", "SGraph", "User", "PstStr", "UsrMnt", "HomeT",
             "CPost", "UrlShort"]

#: The three load levels of Section 5 (RPS per server).
PAPER_LOADS = (5000, 10000, 15000)


@dataclass(frozen=True)
class Settings:
    """Simulation scale knobs shared by the latency experiments.

    The paper simulates 10-server machines; the default here is smaller so
    a full figure regenerates in minutes on a laptop.  Pass
    ``Settings(n_servers=10, duration_s=0.05)`` for a paper-scale run.
    """

    n_servers: int = 2
    duration_s: float = 0.03
    seed: int = 1
    warmup_fraction: float = 0.25


#: The reduced scale of ``repro experiment --quick`` (smoke tests).
QUICK = Settings(n_servers=1, duration_s=0.02)


def point_for(config: SystemConfig, app: AppSpec, rps: float,
              settings: Settings, **overrides) -> SweepPoint:
    """Describe one (system, app, load) cell as an executable point.

    Args:
        config: System configuration to simulate.
        app: Workload (request-type) specification.
        rps: Offered load, requests per second per server.
        settings: Scale knobs mapped onto the point's simulation fields.
        **overrides: Extra :class:`SweepPoint` fields (``faults``,
            ``resilience``, ``arrivals``, ...).

    Returns:
        A :class:`~repro.runner.point.SweepPoint` ready for
        :func:`~repro.runner.run_points`.
    """
    return SweepPoint(config=config, app=app, rps=float(rps),
                      n_servers=settings.n_servers,
                      duration_s=settings.duration_s, seed=settings.seed,
                      warmup_fraction=settings.warmup_fraction, **overrides)


def format_table(headers: List[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width text table.  Tolerates an empty row list and rows
    shorter than the header (missing cells render blank)."""
    rows = [[str(c) for c in row] for row in rows]
    rows = [row + [""] * (len(headers) - len(row)) for row in rows]
    widths = [max([len(h)] + [len(r[i]) for r in rows])
              for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0 or (arr <= 0).any():
        raise ValueError("geomean needs positive values")
    return float(np.exp(np.log(arr).mean()))
