"""Measurement harness for the Figure 1 microarch-optimization study.

For each optimization we replay a synthetic trace of a workload through
the relevant structure twice (baseline vs optimized), measure the miss or
misprediction rates, and convert the delta into a speedup with the core
CPI model.  The trace statistics (footprints, locality, branch behaviour)
are what separate monolithic from microservice workloads; the speedup gap
in Figure 1 falls out of those statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.cache import SetAssociativeCache
from repro.cpu.core_model import SERVERCLASS_CORE, CoreModel, SegmentProfile
from repro.cpu.microarch.branch import measure_accuracy
from repro.cpu.microarch.iprefetch import NoIPrefetcher, \
    run_instruction_prefetch
from repro.cpu.microarch.prefetch import NoPrefetcher, run_data_prefetch
from repro.cpu.microarch.replacement import RipplePolicy, profile_transient_lines
from repro.cpu.traces import TraceProfile, branch_trace, data_address_trace, \
    instruction_address_trace

# Average instructions per data access / per branch, used to convert
# per-access miss rates into per-kilo-instruction rates.
INSTR_PER_DATA_ACCESS = 3.0
# Straight-line microservice handler code is less branch-dense than
# monolithic control-heavy code.
INSTR_PER_BRANCH = {"mono": 8.0, "micro": 12.0}
# One I-cache line feeds ~4 instructions before a taken branch redirects
# the fetch stream.
INSTR_PER_IFETCH = 4.0
MEMORY_LATENCY = 200.0
L2_LATENCY = 20.0


@dataclass
class OptimizationResult:
    """Baseline vs optimized CPI and the derived speedup for one workload."""

    workload: str
    kind: str
    baseline_cpi: float
    optimized_cpi: float

    @property
    def speedup(self) -> float:
        return self.baseline_cpi / self.optimized_cpi


def _core_model() -> CoreModel:
    # The original studies target big OoO server cores.
    return CoreModel(SERVERCLASS_CORE)


def _segment(profile: TraceProfile, l1_mpki: float, l2_miss_fraction: float,
             branch_misp_mpki: float) -> SegmentProfile:
    return SegmentProfile(ilp=profile.ilp, l1_mpki=l1_mpki,
                          l2_miss_fraction=l2_miss_fraction,
                          branch_misp_mpki=branch_misp_mpki)


def _nominal_rates(profile: TraceProfile) -> dict:
    """Trace-independent nominal rates used for the non-varied CPI terms."""
    if profile.kind == "mono":
        return {"l1_mpki": 20.0, "l2_miss_fraction": 0.35, "branch_misp_mpki": 4.0}
    return {"l1_mpki": 8.0, "l2_miss_fraction": 0.10, "branch_misp_mpki": 0.8}


def evaluate_data_prefetcher(profile: TraceProfile, prefetcher_factory,
                             rng: np.random.Generator,
                             n_accesses: int = 120_000) -> OptimizationResult:
    """Data-prefetcher speedup: replay the data stream through an LLC proxy."""
    addrs = data_address_trace(profile, n_accesses, rng)
    nominal = _nominal_rates(profile)
    instructions = n_accesses * INSTR_PER_DATA_ACCESS
    core = _core_model()

    def llc_mpki(prefetcher) -> float:
        cache = SetAssociativeCache(2 * 1024 * 1024, 16, name="LLC")
        # Warm-up replay: services run continuously, so steady-state (not
        # cold-start) miss rates are what matters.  The prefetcher also
        # trains during warm-up.
        run_data_prefetch(cache, prefetcher, addrs)
        cache.reset_stats()
        run_data_prefetch(cache, prefetcher, addrs)
        return cache.stats.mpki(int(instructions))

    base_mpki = llc_mpki(NoPrefetcher())
    opt_mpki = llc_mpki(prefetcher_factory())
    # LLC misses pay the memory latency; CPI memory term varies with them.
    mlp = core.memory_level_parallelism()
    def cpi(mpki):
        seg = _segment(profile, nominal["l1_mpki"], nominal["l2_miss_fraction"],
                       nominal["branch_misp_mpki"])
        fixed = core.effective_cpi(seg, L2_LATENCY, 0.0)  # without memory misses
        return fixed + mpki / 1000.0 * MEMORY_LATENCY / mlp
    return OptimizationResult(profile.name, profile.kind, cpi(base_mpki), cpi(opt_mpki))


def evaluate_branch_predictor(profile: TraceProfile, baseline_factory,
                              optimized_factory, rng: np.random.Generator,
                              n_branches: int = 60_000) -> OptimizationResult:
    """Branch-predictor speedup from measured misprediction rates."""
    pcs, taken = branch_trace(profile, n_branches, rng)
    acc_base = measure_accuracy(baseline_factory(), pcs, taken)
    acc_opt = measure_accuracy(optimized_factory(), pcs, taken)
    branches_per_ki = 1000.0 / INSTR_PER_BRANCH[profile.kind]
    nominal = _nominal_rates(profile)
    core = _core_model()

    def cpi(accuracy):
        seg = _segment(profile, nominal["l1_mpki"], nominal["l2_miss_fraction"],
                       branches_per_ki * (1.0 - accuracy))
        return core.effective_cpi(seg, L2_LATENCY, MEMORY_LATENCY)

    return OptimizationResult(profile.name, profile.kind, cpi(acc_base), cpi(acc_opt))


def evaluate_instruction_prefetcher(profile: TraceProfile, prefetcher_factory,
                                    rng: np.random.Generator,
                                    n_accesses: int = 120_000) -> OptimizationResult:
    """I-prefetcher speedup: L1I misses stall the front end for L2 latency."""
    addrs = instruction_address_trace(profile, n_accesses, rng)

    def imiss_mpki(prefetcher) -> float:
        cache = SetAssociativeCache(64 * 1024, 8, name="L1I")
        run_instruction_prefetch(cache, prefetcher, addrs)  # warm-up + train
        cache.reset_stats()
        run_instruction_prefetch(cache, prefetcher, addrs)
        return cache.stats.mpki(int(n_accesses * INSTR_PER_IFETCH))

    return _frontend_result(profile, imiss_mpki(NoIPrefetcher()),
                            imiss_mpki(prefetcher_factory()))


def evaluate_icache_replacement(profile: TraceProfile, rng: np.random.Generator,
                                n_accesses: int = 120_000) -> OptimizationResult:
    """Ripple-like profile-guided I-cache replacement vs LRU."""
    addrs = instruction_address_trace(profile, n_accesses, rng)
    cache_lines = 64 * 1024 // 64

    def run(cache) -> float:
        for a in addrs:                 # warm-up pass
            cache.access(int(a))
        cache.reset_stats()
        for a in addrs:                 # measured pass
            cache.access(int(a))
        return cache.stats.mpki(int(n_accesses * INSTR_PER_IFETCH))

    lru_mpki = run(SetAssociativeCache(64 * 1024, 8, name="L1I"))
    transient = profile_transient_lines(addrs, cache_lines)
    ripple_mpki = run(SetAssociativeCache(64 * 1024, 8,
                                          policy=RipplePolicy(transient),
                                          name="L1I"))
    return _frontend_result(profile, lru_mpki, ripple_mpki)


def _frontend_result(profile: TraceProfile, base_mpki: float,
                     opt_mpki: float) -> OptimizationResult:
    nominal = _nominal_rates(profile)
    core = _core_model()
    seg = _segment(profile, nominal["l1_mpki"], nominal["l2_miss_fraction"],
                   nominal["branch_misp_mpki"])
    fixed = core.effective_cpi(seg, L2_LATENCY, MEMORY_LATENCY)

    def cpi(mpki):
        return fixed + mpki / 1000.0 * L2_LATENCY  # front-end stall per I-miss

    return OptimizationResult(profile.name, profile.kind, cpi(base_mpki), cpi(opt_mpki))


def geometric_mean_speedup(results) -> float:
    """Geomean speedup across workloads (how Figure 1 aggregates)."""
    speedups = [r.speedup for r in results]
    if not speedups:
        raise ValueError("no results")
    return float(np.exp(np.mean(np.log(speedups))))
