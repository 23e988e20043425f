"""Context-switch and scheduler-overhead models (Sections 3.3, 4.4).

uManycore saves/restores process state in hardware (~10^2 cycles total);
the baselines use software schedulers whose costs Figure 6 quotes:
~2K cycles for the state of the art (Shenango/Shinjuku/ZygOS) and ~5K
cycles for Linux.  Centralized software schedulers (Shinjuku, Shenango)
additionally funnel every scheduling operation through a dedicated core,
which becomes a throughput bottleneck (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim.engine import Engine
from repro.sim.resource import Resource


@dataclass(frozen=True)
class ContextSwitchConfig:
    """Cycle costs of one scheduling regime.

    ``save_cycles``/``restore_cycles`` are charged on the core at block/
    resume; ``scheduler_op_cycles`` is the per-operation cost of the
    scheduling software (enqueue, dequeue, wakeup); with ``centralized``
    those operations serialize on one dedicated scheduler core per domain.
    """

    name: str
    save_cycles: float
    restore_cycles: float
    scheduler_op_cycles: float = 0.0
    centralized: bool = False
    # Software scheduling jitter: with probability ``jitter_prob`` an
    # operation stalls for ``jitter_ns`` (timer interference, lock
    # contention, kernel noise) — the classic software sources of tail
    # latency that hardware scheduling removes.
    jitter_prob: float = 0.0
    jitter_ns: float = 0.0

    @property
    def switch_cycles(self) -> float:
        return self.save_cycles + self.restore_cycles

    def scaled(self, switch_cycles: float) -> "ContextSwitchConfig":
        """Same regime with a different total switch cost (Figure 6 sweeps)."""
        half = switch_cycles / 2.0
        return ContextSwitchConfig(
            name=f"{self.name}-{int(switch_cycles)}cy",
            save_cycles=half, restore_cycles=half,
            scheduler_op_cycles=self.scheduler_op_cycles,
            centralized=self.centralized,
            jitter_prob=self.jitter_prob, jitter_ns=self.jitter_ns)


#: uManycore: ContextSwitch/Dequeue instructions (~128 cycles total).
HARDWARE_CS = ContextSwitchConfig("hardware", save_cycles=64,
                                  restore_cycles=64)
#: State-of-the-art software schedulers (~2K cycles/switch, Figure 6).
#: Shinjuku's dispatcher core spends ~1 us per scheduling decision when
#: RPC dispatch is included; that one core is the throughput bottleneck
#: the paper calls out in Section 4.4.
SHINJUKU_CS = ContextSwitchConfig("shinjuku", 1000, 1000,
                                  scheduler_op_cycles=1200, centralized=True,
                                  jitter_prob=0.0004, jitter_ns=2_000_000.0)
SHENANGO_CS = ContextSwitchConfig("shenango", 900, 900,
                                  scheduler_op_cycles=1100, centralized=True,
                                  jitter_prob=0.0004, jitter_ns=1_800_000.0)
ZYGOS_CS = ContextSwitchConfig("zygos", 1100, 1100,
                               scheduler_op_cycles=5500, centralized=False,
                               jitter_prob=0.0006, jitter_ns=2_200_000.0)
#: Linux (~5K cycles/switch, kernel scheduling + network stack per op).
LINUX_CS = ContextSwitchConfig("linux", 2500, 2500,
                               scheduler_op_cycles=15000, centralized=False,
                               jitter_prob=0.0010, jitter_ns=3_000_000.0)

CS_PRESETS: Dict[str, ContextSwitchConfig] = {
    cfg.name: cfg
    for cfg in (HARDWARE_CS, SHINJUKU_CS, SHENANGO_CS, ZYGOS_CS, LINUX_CS)
}


def _idle() -> None:
    """Completion of scheduler-core work that nothing waits on."""


class SchedulerDomain:
    """Scheduling-overhead engine for one queue domain.

    Charges save/restore costs and, for software schedulers, per-op
    scheduler costs — serialized through the domain's dedicated scheduler
    core when ``centralized``.  ``rng`` draws the jitter: anything with a
    ``random()`` method (a :class:`~repro.sim.rng.ScalarDraws` in a
    server, or a ``numpy.random.Generator``).
    """

    def __init__(self, engine: Engine, config: ContextSwitchConfig,
                 freq_ghz: float, name: str = "", rng=None):
        if freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        self.engine = engine
        self.config = config
        self.freq_ghz = freq_ghz
        self.name = name
        self.rng = rng
        self.jitter_events = 0
        self._sched_core: Optional[Resource] = (
            Resource(engine, capacity=1, name=f"{name}.sched")
            if config.centralized else None)
        self.switches = 0
        self.scheduler_ops = 0
        # Per-op costs precomputed (config is frozen, freq fixed at
        # construction): the save/restore/op paths run per segment.
        self._save_ns = config.save_cycles / freq_ghz
        self._restore_ns = config.restore_cycles / freq_ghz
        self._op_ns = config.scheduler_op_cycles / freq_ghz
        self._jitter_on = rng is not None and config.jitter_prob > 0

    def charge_save(self, done: Callable[[], None], rec=None) -> None:
        """Save process state on a block.

        Hardware: the core's ContextSwitch instruction (~save_cycles).
        Centralized software (Shinjuku-style): the dedicated scheduler
        core detects the block and saves the context — the work
        serializes with everything else that core does (Section 4.4).
        """
        self.switches += 1
        if self.engine.tracer.enabled:
            done = self.engine.tracer.span_until_done(
                self.engine, done, "context_switch", "save", rec=rec,
                track=self.name or "sched")
        if self._sched_core is not None:
            self._sched_core.acquire(self._save_ns, done)
        else:
            self.engine.schedule(self._save_ns, done)

    def charge_restore(self, done: Callable[[], None], rec=None) -> None:
        """Restore process state on resume (part of Dequeue / dispatch)."""
        if self.engine.tracer.enabled:
            done = self.engine.tracer.span_until_done(
                self.engine, done, "context_switch", "restore", rec=rec,
                track=self.name or "sched")
        if self._sched_core is not None:
            self._sched_core.acquire(self._restore_ns, done)
        else:
            self.engine.schedule(self._restore_ns, done)

    def scheduler_op(self, done: Callable[[], None], rec=None) -> None:
        """One scheduling operation (enqueue/dequeue/wakeup).

        Hardware scheduling costs nothing here (the Dequeue instruction's
        few cycles are folded into restore).  Software costs
        ``scheduler_op_cycles``; centralized software also queues on the
        dedicated scheduler core.
        """
        self.scheduler_ops += 1
        op_ns = self._op_ns
        if self._jitter_on and self.rng.random() < self.config.jitter_prob:
            self.jitter_events += 1
            op_ns += self.config.jitter_ns
        if op_ns <= 0:
            done()
            return
        if self.engine.tracer.enabled:
            done = self.engine.tracer.span_until_done(
                self.engine, done, "context_switch", "sched_op", rec=rec,
                track=self.name or "sched")
        if self._sched_core is not None:
            self._sched_core.acquire(op_ns, done)
        else:
            self.engine.schedule(op_ns, done)

    def background_load(self, busy_ns: float) -> None:
        """Extra dispatcher work (e.g. preemption checks) on the scheduler
        core, contending with the dispatch path but with no completion
        callback of its own."""
        if busy_ns > 0 and self._sched_core is not None:
            self._sched_core.acquire(busy_ns, _idle)

    def scheduler_utilization(self) -> float:
        if self._sched_core is None:
            return 0.0
        return self._sched_core.utilization()
