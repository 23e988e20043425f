"""Functional set-associative cache with pluggable insertion policy.

Used directly for Figure 9 (hit rates of the Table 2 hierarchy on
microservice handler traces) and as the measurement substrate for the
Figure 1 microarchitectural-optimization studies.  The big system
simulations use the analytic model in :mod:`repro.cpu.analytic` instead,
for speed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional


@dataclass
class CacheStats:
    """Access counters; ``prefetch_*`` track prefetched-line usefulness."""

    accesses: int = 0
    hits: int = 0
    prefetches: int = 0
    useful_prefetches: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction given the run's instruction count."""
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        return 1000.0 * self.misses / instructions


class InsertionPolicy:
    """Decides where a newly filled line lands in the LRU stack.

    The default inserts at MRU (classic LRU replacement).  Profile-guided
    policies (e.g. the Ripple-like I-cache policy in
    :mod:`repro.cpu.microarch.replacement`) insert *transient* lines at the
    LRU end so they are evicted first.
    """

    def is_transient(self, line_addr: int) -> bool:
        return False


class SetAssociativeCache:
    """Set-associative cache; tags per set kept in an LRU-ordered dict.

    Addresses are byte addresses.  ``access`` returns True on hit and, on a
    miss, fills the line (allocate-on-miss); ``prefetch`` fills without
    counting an access.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_size: int = 64,
        policy: Optional[InsertionPolicy] = None,
        name: str = "",
    ):
        if size_bytes % (assoc * line_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by assoc*line "
                f"({assoc}*{line_size})"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size_bytes // (assoc * line_size)
        self.name = name
        self.policy = policy or InsertionPolicy()
        self.stats = CacheStats()
        # set index -> OrderedDict[line_addr, was_prefetched]; last = MRU
        self._sets = [OrderedDict() for __ in range(self.n_sets)]

    def _locate(self, addr: int):
        line = addr // self.line_size
        return line, self._sets[line % self.n_sets]

    def access(self, addr: int) -> bool:
        """Demand access; returns hit/miss and fills on miss."""
        line, cset = self._locate(addr)
        self.stats.accesses += 1
        if line in cset:
            if cset[line]:  # first demand hit on a prefetched line
                self.stats.useful_prefetches += 1
                cset[line] = False
            cset.move_to_end(line)
            self.stats.hits += 1
            return True
        self._fill(line, cset, prefetched=False)
        return False

    def prefetch(self, addr: int) -> bool:
        """Fill a line speculatively; returns False if already present."""
        line, cset = self._locate(addr)
        if line in cset:
            return False
        self.stats.prefetches += 1
        self._fill(line, cset, prefetched=True)
        return True

    def contains(self, addr: int) -> bool:
        line, cset = self._locate(addr)
        return line in cset

    def _fill(self, line: int, cset: OrderedDict, prefetched: bool) -> None:
        if len(cset) >= self.assoc:
            cset.popitem(last=False)  # evict LRU
        cset[line] = prefetched
        if self.policy.is_transient(line):
            cset.move_to_end(line, last=False)  # insert at LRU position

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        """Invalidate all lines (keeps stats)."""
        for cset in self._sets:
            cset.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)
