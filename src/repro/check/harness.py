"""Property-based checker harness: fuzz the simulator under the sanitizer.

One :class:`Trial` is a reduced-scale cluster simulation drawn from a
seed — system, app, load, arrival process, and optionally a random fault
schedule — executed under a collecting :class:`~repro.check.context.
CheckContext`.  :func:`fuzz` drives a deterministic grid of trials (same
``seed`` → same trials → same outcomes) and returns the failing ones;
:func:`shrink` reduces a failing trial axis by axis (drop faults, halve
the duration, drop to one server, simplify the app…) to the smallest
variant that still reproduces, so a CI failure prints one short repro
line instead of a 2000-event transcript.

The per-trial randomness is consumed *up front* from numpy generators —
no ``random``/``Date.now`` style ambient state — which is what makes a
failure replayable from its trial alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.check.context import CheckContext

#: Fuzz axes: kept deliberately small-scale so one trial runs in well
#: under a second and a CI budget of a few dozen trials stays cheap.
CONFIG_NAMES = ("umanycore", "scaleout", "serverclass")
APP_NAMES = ("Text", "User", "HomeT", "exponential",
             "MCompose", "MPage", "HSearch", "HReserve")
LOADS = (4_000.0, 8_000.0, 16_000.0)
#: Arrival-process axis — every named rate profile plus trace replay
#: ("replay" resolves to a small Alibaba-marginal trace per trial).
ARRIVALS = ("poisson", "bursty", "diurnal", "mmpp", "flash", "ramp",
            "replay")
DURATIONS_S = (0.002, 0.004)
FAULT_RATES = (200.0, 1_000.0)
#: Scheduling-policy axes (repro.sched); "off" on the steal axis means
#: work stealing disabled, any other value enables it with that victim
#: policy.
DISPATCHES = ("rr", "least", "affinity")
RQ_POLICIES = ("fcfs", "srpt", "sjf", "edf")
STEALS = ("off", "first", "maxload")
#: Datacenter-tier axes (repro.dc); "off" on the lb axis means no dc
#: tier at all (the classic per-server arrival path).
LBS = ("off", "rr", "random", "p2c", "least", "affinity")
REPLICATIONS = (0, 1, 2)


@dataclass(frozen=True)
class Trial:
    """One fuzz case: a fully-described checked simulation."""

    seed: int
    config: str = "umanycore"
    app: str = "Text"
    rps: float = 8_000.0
    n_servers: int = 1
    duration_s: float = 0.003
    arrivals: str = "poisson"
    fault_rate: float = 0.0        # random failures/s (0 = fault-free)
    trace: bool = True             # also run the span-tree checks
    dispatch: str = "rr"           # NIC->village policy
    rq_policy: str = "fcfs"        # intra-village dequeue order
    steal: str = "off"             # "off" or a steal-victim policy
    core_bypass: bool = False      # nanoPU-style fast path
    lb: str = "off"                # "off" or a front-end LB policy
    replication: int = 0           # service replicas (0 = everywhere)
    autoscale: bool = False        # reactive server autoscaling
    hybrid: bool = False           # arm the analytic fast path

    def describe(self) -> str:
        """One-line repro of this trial — valid ``Trial(...)`` syntax, so
        a failure report can be pasted straight back into Python."""
        parts = [f"seed={self.seed}", f"config={self.config!r}",
                 f"app={self.app!r}", f"rps={self.rps:g}",
                 f"n_servers={self.n_servers}",
                 f"duration_s={self.duration_s:g}",
                 f"arrivals={self.arrivals!r}"]
        if self.fault_rate > 0:
            parts.append(f"fault_rate={self.fault_rate:g}")
        if not self.trace:
            parts.append("trace=False")
        if self.dispatch != "rr":
            parts.append(f"dispatch={self.dispatch!r}")
        if self.rq_policy != "fcfs":
            parts.append(f"rq_policy={self.rq_policy!r}")
        if self.steal != "off":
            parts.append(f"steal={self.steal!r}")
        if self.core_bypass:
            parts.append("core_bypass=True")
        if self.lb != "off":
            parts.append(f"lb={self.lb!r}")
        if self.replication:
            parts.append(f"replication={self.replication}")
        if self.autoscale:
            parts.append("autoscale=True")
        if self.hybrid:
            parts.append("hybrid=True")
        return "Trial(" + ", ".join(parts) + ")"


def _config(name: str):
    """Reduced-scale system config for one trial (construction cost of a
    full 1024-core server dwarfs a 2 ms simulation)."""
    from repro.systems.configs import SCALEOUT, SERVERCLASS, UMANYCORE_128

    if name == "umanycore":
        return UMANYCORE_128
    if name == "scaleout":
        return replace(SCALEOUT, n_cores=128, n_clusters=4,
                       coherence_domain_cores=128)
    if name == "serverclass":
        return SERVERCLASS
    raise KeyError(f"unknown trial config {name!r}")


def _trial_config(trial: Trial):
    """The trial's reduced config with its policy axes folded in."""
    cfg = _config(trial.config)
    overrides = {}
    if trial.dispatch != cfg.dispatch:
        overrides["dispatch"] = trial.dispatch
    if trial.rq_policy != cfg.rq_policy:
        overrides["rq_policy"] = trial.rq_policy
    if trial.steal != cfg.steal:
        overrides["steal"] = trial.steal
    if trial.core_bypass:
        overrides["core_bypass"] = True
    return replace(cfg, **overrides) if overrides else cfg


def run_trial(trial: Trial) -> CheckContext:
    """Execute one trial under a collecting sanitizer.

    Returns:
        The trial's :class:`CheckContext`; ``.ok`` is False when any
        invariant was violated.
    """
    from repro.systems.cluster import ClusterSimulation
    from repro.telemetry import Tracer
    from repro.workloads.deathstar import app_by_name

    arrivals = trial.arrivals
    if arrivals == "replay":
        from repro.workloads.replay import sample_alibaba_trace

        # Aggregate trace sized to the trial: cluster-wide mean rate,
        # deterministic in the trial seed.
        arrivals = sample_alibaba_trace(
            trial.duration_s, trial.rps * trial.n_servers,
            seed=trial.seed, window_s=trial.duration_s / 8)
    check = CheckContext(strict=False)
    tracer = Tracer() if trial.trace else None
    dc = None
    if trial.lb != "off":
        from repro.dc import DcConfig

        dc = DcConfig(lb=trial.lb, replication=trial.replication,
                      autoscale=trial.autoscale,
                      autoscale_interval_ns=200_000.0)
    hybrid = None
    if trial.hybrid:
        from repro.hybrid import HybridConfig

        # Aggressive knobs so commits actually happen inside a 2-4 ms
        # trial: the point is to exercise the elided event paths and
        # their conservation ledgers, not to be a good estimator.
        hybrid = HybridConfig(tol=0.5, windows=3, min_samples=5,
                              window_ns=300_000.0, calibration_roots=10)
    sim = ClusterSimulation(
        _trial_config(trial), app_by_name(trial.app),
        rps_per_server=trial.rps, n_servers=trial.n_servers,
        duration_s=trial.duration_s, seed=trial.seed, arrivals=arrivals,
        tracer=tracer, check=check, dc=dc, hybrid=hybrid)
    if trial.fault_rate > 0:
        from repro.faults import FaultSchedule, fault_inventory

        inventory = fault_inventory(sim.servers)
        sim.install_faults(FaultSchedule.random(
            seed=trial.seed, duration_ns=trial.duration_s * 1e9,
            rate_per_s=trial.fault_rate, detection_ns=50_000.0,
            **inventory))
    sim.run()
    return check


def draw_trial(rng: np.random.Generator,
               fault_fraction: float = 0.5) -> Trial:
    """Draw one random trial from the fuzz axes."""
    return Trial(
        seed=int(rng.integers(1, 2**31)),
        config=str(rng.choice(CONFIG_NAMES)),
        app=str(rng.choice(APP_NAMES)),
        rps=float(rng.choice(LOADS)),
        n_servers=int(rng.choice((1, 2))),
        duration_s=float(rng.choice(DURATIONS_S)),
        arrivals=str(rng.choice(ARRIVALS)),
        fault_rate=float(rng.choice(FAULT_RATES))
        if float(rng.random()) < fault_fraction else 0.0,
        trace=bool(rng.random() < 0.5),
        dispatch=str(rng.choice(DISPATCHES)),
        rq_policy=str(rng.choice(RQ_POLICIES)),
        steal=str(rng.choice(STEALS)),
        core_bypass=bool(rng.random() < 0.25),
        lb=str(rng.choice(LBS)),
        replication=int(rng.choice(REPLICATIONS)),
        autoscale=bool(rng.random() < 0.25),
        hybrid=bool(rng.random() < 0.25))


ProgressFn = Callable[[int, Trial, CheckContext], None]


def fuzz(trials: int = 20, seed: int = 0, fault_fraction: float = 0.5,
         progress: Optional[ProgressFn] = None
         ) -> List[Tuple[Trial, CheckContext]]:
    """Run a deterministic grid of random trials through the sanitizer.

    Args:
        trials: How many trials to draw and run.
        seed: Seed of the trial-drawing generator — the whole grid (and
            every outcome) is a pure function of it.
        fault_fraction: Fraction of trials that carry a random fault
            schedule.
        progress: Optional ``(index, trial, check)`` callback after each
            trial.

    Returns:
        ``(trial, check)`` for every failing trial (empty = all clean).
    """
    rng = np.random.default_rng(seed)
    failures: List[Tuple[Trial, CheckContext]] = []
    for i in range(trials):
        trial = draw_trial(rng, fault_fraction)
        check = run_trial(trial)
        if progress is not None:
            progress(i, trial, check)
        if not check.ok:
            failures.append((trial, check))
    return failures


def shrink(trial: Trial,
           fails: Optional[Callable[[Trial], bool]] = None) -> Trial:
    """Reduce a failing trial to a smaller one that still fails.

    Tries one axis at a time, in order of how much each simplifies the
    repro: drop the fault schedule, reset the policy and dc axes,
    disarm the hybrid fast path, drop tracing, halve the duration
    (twice), go to one server, swap in the simplest app, fall back to
    Poisson arrivals, and lower the load.  An axis change is kept only
    when the reduced trial still fails.

    Args:
        trial: A trial for which ``fails(trial)`` is True.
        fails: Failure predicate; defaults to re-running the trial and
            checking the sanitizer (injectable for unit tests).

    Returns:
        The smallest failing variant found (possibly ``trial`` itself).
    """
    if fails is None:
        def fails(t: Trial) -> bool:
            return not run_trial(t).ok

    stages = [
        lambda t: replace(t, fault_rate=0.0),
        lambda t: replace(t, dispatch="rr", rq_policy="fcfs",
                          steal="off", core_bypass=False),
        lambda t: replace(t, lb="off", replication=0, autoscale=False),
        lambda t: replace(t, hybrid=False),
        lambda t: replace(t, trace=False),
        lambda t: replace(t, duration_s=t.duration_s / 2),
        lambda t: replace(t, duration_s=t.duration_s / 2),
        lambda t: replace(t, n_servers=1),
        lambda t: replace(t, app="Text"),
        lambda t: replace(t, arrivals="poisson"),
        lambda t: replace(t, rps=min(t.rps, LOADS[0])),
    ]
    current = trial
    for stage in stages:
        candidate = stage(current)
        if candidate != current and fails(candidate):
            current = candidate
    return current
