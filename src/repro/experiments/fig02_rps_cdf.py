"""Figure 2: CDF of Requests per Second received by a server.

Paper: median ~500 RPS; 20 % of the time >= 1000 RPS; 5 % >= 1500 RPS.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.experiments.ascii_plot import sparkline
from repro.experiments.common import format_table
from repro.workloads.alibaba import AlibabaTraceGenerator, cdf


def run(n: int = 200_000, seed: int = 7) -> Dict[str, np.ndarray]:
    """Compute this figure's data grid (see the module docstring)."""
    gen = AlibabaTraceGenerator(np.random.default_rng(seed))
    rps = gen.server_rps(n)
    grid = np.arange(0, 2001, 250, dtype=float)
    return {"grid": grid, "cdf": cdf(rps, grid), "samples": rps}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    r = run()
    rows = [[f"{int(g)}", f"{c:.3f}"] for g, c in zip(r["grid"], r["cdf"])]
    print("Figure 2: CDF of per-server load (RPS)")
    print(format_table(["RPS", "CDF"], rows))
    print("cdf:", sparkline(r["cdf"], lo=0.0, hi=1.0))
    samples = r["samples"]
    print(f"\nmedian = {np.median(samples):.0f} RPS (paper ~500)")
    print(f"P(load >= 1000) = {(samples >= 1000).mean():.3f} (paper ~0.20)")
    print(f"P(load >= 1500) = {(samples >= 1500).mean():.3f} (paper ~0.05)")
