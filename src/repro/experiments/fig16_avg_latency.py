"""Figure 16: end-to-end average latency, 3 systems x 8 apps x 3 loads.

Paper: uManycore cuts average latency vs ServerClass by 2.3x / 3.2x /
5.6x at 5K / 10K / 15K RPS, and vs ScaleOut by 2.1x / 2.5x / 3.2x —
smaller than the tail reductions, since the design targets the tail.
"""

from __future__ import annotations

from repro.experiments.latency_matrix import print_reductions

PAPER_SC = {5000: 2.3, 10000: 3.2, 15000: 5.6}
PAPER_SO = {5000: 2.1, 10000: 2.5, 15000: 3.2}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    print_reductions(16, "mean_ns", "average", PAPER_SC, PAPER_SO, quick)
