"""Figure 5: CDF of RPC invocations per request.

Paper: median ~4.2 RPCs; ~5 % of requests invoke 16 or more.
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
    rpcs = gen.rpc_count(n).astype(float)
    grid = np.arange(0, 41, 5, dtype=float)
    return {"grid": grid, "cdf": cdf(rpcs, grid), "samples": rpcs}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    r = run()
    rows = [[f"{int(g)}", f"{c:.3f}"] for g, c in zip(r["grid"], r["cdf"])]
    print("Figure 5: CDF of RPC invocations per request")
    print(format_table(["#RPCs", "CDF"], rows))
    print("cdf:", sparkline(r["cdf"], lo=0.0, hi=1.0))
    s = r["samples"]
    print(f"\nmedian = {np.median(s):.1f} (paper ~4.2)")
    print(f"P(rpcs >= 16) = {(s >= 16).mean():.3f} (paper ~0.05)")
