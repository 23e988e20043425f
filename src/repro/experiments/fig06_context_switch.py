"""Figure 6: impact of context-switch cost on tail latency.

Paper setup: SocialNetwork on the 1024-core ScaleOut, Poisson arrivals at
5K/10K/50K RPS, sweeping the per-switch overhead from 0 to 8192 cycles
(Linux ~5K; Shenango/Shinjuku/ZygOS ~2K; the hardware target 128-256).

Paper result: normalized to zero-cost switching, Linux-class overheads
degrade the tail 26-38x at 50K RPS and software schedulers 13-23x, while
128-256-cycle switches barely register.  The blow-up comes from the
switch work funnelling through the centralized scheduler core.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.core.context_switch import ContextSwitchConfig
from repro.experiments.common import Settings, format_table, point_for
from repro.runner import run_points
from repro.systems.configs import SCALEOUT
from repro.workloads.deathstar import social_network_app

CS_CYCLES = (0, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
LOADS = (5000, 10000, 50000)


def _config(cs_cycles: int):
    cs = ContextSwitchConfig(f"cs{cs_cycles}", save_cycles=cs_cycles / 2,
                             restore_cycles=cs_cycles / 2,
                             scheduler_op_cycles=0.0, centralized=True)
    # Software schedulers also switch at every preemption quantum (timer
    # ticks), so the per-switch cost is paid ~tens of times per request —
    # that multiplier, funnelled through the centralized scheduler core,
    # is what blows the tail up at high load.
    return replace(SCALEOUT, name=f"ScaleOut-cs{cs_cycles}", cs=cs,
                   sw_rpc_core_ns=0.0,
                   preempt_quantum_ns=10_000.0 if cs_cycles else 0.0,
                   preempt_op_cycles=cs_cycles / 2)


def run(loads: Tuple[int, ...] = LOADS,
        cs_cycles: Tuple[int, ...] = CS_CYCLES,
        settings: Settings = Settings(n_servers=1, duration_s=0.05)
        ) -> Dict[Tuple[int, int], float]:
    """P99 (ns) per (cs_cycles, load)."""
    app = social_network_app("Text")
    cells = [(cycles, rps) for rps in loads for cycles in cs_cycles]
    results = run_points([point_for(_config(cycles), app, rps, settings)
                          for cycles, rps in cells])
    return {cell: r.p99_ns for cell, r in zip(cells, results)}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    rows = []
    for cycles in CS_CYCLES:
        row = [str(cycles)]
        for rps in LOADS:
            norm = results[(cycles, rps)] / results[(0, rps)]
            row.append(f"{norm:.2f}")
        rows.append(row)
    print("Figure 6: tail latency normalized to zero-cost context switch")
    print(format_table(["CS cycles"] + [f"{r//1000}K RPS" for r in LOADS],
                       rows))
    print("\npaper: Linux (~5K cycles) degrades 26-38x at 50K RPS; "
          "software schedulers (~2K) 13-23x; 128-256 cycles ~1x")
