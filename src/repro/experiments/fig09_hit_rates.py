"""Figure 9: L1/L2 TLB and cache hit rates for microservice handlers.

Paper: on the Table 2 hierarchy, handler working sets fit in the L1
structures — L1 TLB and L1 cache hit rates above 95 % for both data and
instructions; L2 structures see lower rates because the L1s filter the
high-locality accesses.

We replay synthetic handler traces (Section 3.5 statistics) through the
functional cache/TLB hierarchy, measuring steady state (warm-up replay
excluded from the counters).  The L2-TLB/L2-cache rows use the
ServerClass hierarchy (the manycore hierarchy is single-level by design).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cpu.hierarchy import SERVERCLASS_HIERARCHY, CacheHierarchy
from repro.cpu.traces import MICRO_PROFILES, handler_trace
from repro.experiments.common import format_table


def run(n_accesses: int = 120_000, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Hit rates per structure, averaged over the micro workloads."""
    data_rates: Dict[str, list] = {}
    instr_rates: Dict[str, list] = {}
    for profile in MICRO_PROFILES:
        rng = np.random.default_rng(seed)
        h = CacheHierarchy(SERVERCLASS_HIERARCHY)
        d_addrs, i_addrs = handler_trace(profile, n_accesses, rng)
        for pass_idx in range(2):           # warm-up, then measured pass
            if pass_idx == 1:
                for c in (h.l1d, h.l1i, h.l2, h.l3, h.dtlb, h.itlb,
                          h.l2_dtlb, h.l2_itlb):
                    if c is not None:
                        c.reset_stats()
            for d, i in zip(d_addrs, i_addrs):
                h.access_data(int(d))
                h.access_instr(int(i))
        rates = h.hit_rates()
        for key, bucket in (("L1DTLB", data_rates), ("L2DTLB", data_rates),
                            ("L1D", data_rates), ("L2", data_rates)):
            bucket.setdefault(key, []).append(rates[key])
        for key, bucket in (("L1ITLB", instr_rates), ("L2ITLB", instr_rates),
                            ("L1I", instr_rates)):
            bucket.setdefault(key, []).append(rates[key])
    out = {
        "data": {
            "L1TLB": float(np.mean(data_rates["L1DTLB"])),
            "L1Cache": float(np.mean(data_rates["L1D"])),
            "L2TLB": float(np.mean(data_rates["L2DTLB"])),
            "L2Cache": float(np.mean(data_rates["L2"])),
        },
        "instructions": {
            "L1TLB": float(np.mean(instr_rates["L1ITLB"])),
            "L1Cache": float(np.mean(instr_rates["L1I"])),
            "L2TLB": float(np.mean(instr_rates["L2ITLB"])),
            # The unified L2 cache hit rate is shared with data.
            "L2Cache": float(np.mean(data_rates["L2"])),
        },
    }
    return out


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    headers = ["kind", "L1TLB", "L1Cache", "L2TLB", "L2Cache"]
    rows = [[kind] + [f"{results[kind][k]:.3f}" for k in headers[1:]]
            for kind in ("data", "instructions")]
    print("Figure 9: TLB and cache hit rates on handler traces")
    print(format_table(headers, rows))
    print("\npaper: L1 TLB and L1 cache above 0.95; L2 lower (L1-filtered)")
