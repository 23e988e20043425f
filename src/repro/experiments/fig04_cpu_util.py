"""Figure 4: CDF of CPU utilization per request.

Paper: median ~14 %; 99 % of requests below 60 %.
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
    util = gen.cpu_utilization(n)
    grid = np.arange(0.0, 0.71, 0.1)
    return {"grid": grid, "cdf": cdf(util, grid), "samples": util}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    r = run()
    rows = [[f"{g:.1f}", f"{c:.3f}"] for g, c in zip(r["grid"], r["cdf"])]
    print("Figure 4: CDF of per-request CPU utilization")
    print(format_table(["utilization", "CDF"], rows))
    print("cdf:", sparkline(r["cdf"], lo=0.0, hi=1.0))
    s = r["samples"]
    print(f"\nmedian = {np.median(s):.3f} (paper ~0.14)")
    print(f"P99 = {np.percentile(s, 99):.3f} (paper < 0.60)")
