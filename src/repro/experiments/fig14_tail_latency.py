"""Figure 14: end-to-end tail (P99) latency, 3 systems x 8 apps x 3 loads.

Paper: uManycore cuts tail latency vs ServerClass by 6.3x / 8.3x / 16.7x
at 5K / 10K / 15K RPS, and vs ScaleOut by 5.4x / 6.5x / 7.4x.
"""

from __future__ import annotations

from repro.experiments.latency_matrix import print_reductions

PAPER_SC = {5000: 6.3, 10000: 8.3, 15000: 16.7}
PAPER_SO = {5000: 5.4, 10000: 6.5, 15000: 7.4}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout."""
    print_reductions(14, "p99_ns", "tail", PAPER_SC, PAPER_SO, quick)
