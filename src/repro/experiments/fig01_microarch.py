"""Figure 1: microarch optimizations help monoliths, not microservices.

Paper: D-prefetcher +19 % mono / +2 % micro; perceptron BP +14 % / +1 %;
I-prefetcher +16 % / ~0 %; I-cache replacement +2 % / ~0 % (geomean
speedups over the respective baselines).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cpu.microarch.branch import GSharePredictor, PerceptronPredictor
from repro.cpu.microarch.evaluate import (
    evaluate_branch_predictor,
    evaluate_data_prefetcher,
    evaluate_icache_replacement,
    evaluate_instruction_prefetcher,
    geometric_mean_speedup,
)
from repro.cpu.microarch.iprefetch import ISpyPrefetcher
from repro.cpu.microarch.prefetch import PythiaPrefetcher
from repro.cpu.traces import MICRO_PROFILES, MONO_PROFILES
from repro.experiments.common import format_table


def run(n_accesses: int = 120_000, n_branches: int = 60_000,
        seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Geomean speedup per optimization for mono and micro workloads."""
    out: Dict[str, Dict[str, float]] = {}
    evaluators = {
        "D-Prefetcher": lambda p, rng: evaluate_data_prefetcher(
            p, PythiaPrefetcher, rng, n_accesses=n_accesses),
        "Branch Predictor": lambda p, rng: evaluate_branch_predictor(
            p, GSharePredictor, PerceptronPredictor, rng,
            n_branches=n_branches),
        "I-Prefetcher": lambda p, rng: evaluate_instruction_prefetcher(
            p, ISpyPrefetcher, rng, n_accesses=n_accesses),
        "I-Cache Replace": lambda p, rng: evaluate_icache_replacement(
            p, rng, n_accesses=n_accesses),
    }
    for name, evaluate in evaluators.items():
        rng = np.random.default_rng(seed)
        mono = [evaluate(p, rng) for p in MONO_PROFILES]
        micro = [evaluate(p, rng) for p in MICRO_PROFILES]
        out[name] = {
            "mono": geometric_mean_speedup(mono),
            "micro": geometric_mean_speedup(micro),
        }
    return out


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    paper = {"D-Prefetcher": (1.19, 1.02), "Branch Predictor": (1.14, 1.01),
             "I-Prefetcher": (1.16, 1.00), "I-Cache Replace": (1.02, 1.00)}
    rows = []
    for name, r in results.items():
        p_mono, p_micro = paper[name]
        rows.append([name, f"{r['mono']:.3f}", f"{p_mono:.2f}",
                     f"{r['micro']:.3f}", f"{p_micro:.2f}"])
    print("Figure 1: optimization speedups (geomean), measured vs paper")
    print(format_table(
        ["optimization", "mono", "paper", "micro", "paper"], rows))
