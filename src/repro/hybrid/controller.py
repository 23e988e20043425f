"""Guard-and-abort controller: detect, calibrate, commit, watch, abort.

The controller follows the trace-speculation shape with one extra
stage.  Its lifecycle per run:

* **DETECTING** — detailed simulation; per-window telemetry (EWMA
  smoothed) feeds the :class:`~repro.hybrid.detector.SteadyStateDetector`.
* **CALIBRATING** — steady state declared; simulation stays detailed
  while root/call latency samples accumulate (tail quantiles need more
  mass than the detection windows alone), with the drift guard already
  live against the converged rate.
* **COMMITTED** — per-service empirical models answer completion
  events analytically; only the guard tick and the elided completions
  remain as events for committed services.
* **abort** — any guard trip (load drift, structural change) drops
  straight back to DETECTING and re-arms the detector.

Re-materialization on abort is trivial by construction: the detailed
machinery is never torn down — queues, cores, NICs and the ICN keep
existing and simply receive no traffic for committed services.  An
abort stops eliding new work; in-flight analytic completions still fire
(their accounting is identical to real completions), and the next root
request takes the detailed path against the idle queues.

Structural guards keep risky runs fully detailed: a fault injector, an
autoscaler, or a resilience policy anywhere in the cluster means the
controller never commits, so those runs are byte-identical to a run
without the hybrid layer at all.  The same holds for ``tol=0`` (the
detector can never converge) — pinned in tests and perf_smoke.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.hybrid.config import HybridConfig
from repro.hybrid.detector import SteadyStateDetector
from repro.hybrid.model import EmpiricalDist, MGkModel, service_demand_ns
from repro.sim.rng import ScalarDraws

#: Controller lifecycle states.
DETECTING, CALIBRATING, COMMITTED = "detecting", "calibrating", "committed"


class HybridController:
    """Per-run orchestrator of the analytic fast path."""

    def __init__(self, sim, config: HybridConfig):
        self.sim = sim
        self.cfg = config
        self.engine = sim.engine
        self.draws = ScalarDraws(sim.streams.stream("hybrid"))
        n_villages = max(1, sim.config.n_queues) * sim.n_servers
        self.detector = SteadyStateDetector(
            config.tol, config.windows,
            floors={"occupancy": float(n_villages)})
        self.state = DETECTING
        self.window_ns: float = 0.0
        self._horizon_ns: float = 0.0
        #: Services currently served analytically (empty = detailed).
        self.committed: set = set()
        self._dists: Dict[str, EmpiricalDist] = {}
        # Post-convergence calibration samples (unbounded on purpose:
        # every window in CALIBRATING passed the drift guard, so they
        # all belong to the steady-state regime).
        self._cal_roots: List[float] = []
        self._cal_calls: Dict[str, List[float]] = {}
        # Window accumulators for the detector series.
        self._arrivals_cur = 0
        self._seg_sum = 0.0
        self._seg_count = 0
        self._call_cur: Dict[str, list] = {}
        # Guard reference rate and its estimators.  The EWMA is too
        # noisy to freeze as a reference (one Poisson dip at the
        # convergence window would pin it ~20% off), so the guard works
        # on counts: a trailing window-count average for the live rate
        # and the cumulative calibration-span rate for the reference.
        self._committed_rate: float = 0.0
        self._rate_hist: deque = deque(maxlen=8)
        self._cal_arrivals = 0
        self._cal_t0 = 0.0
        # EWMA-smoothed telemetry series (alpha 0.5): single-window
        # Poisson noise at realistic window sizes would otherwise stall
        # the detector and trip the drift guard spuriously.
        self._ewma: Dict[str, float] = {}
        self._guard_strikes = 0
        # Stats.
        self.commits = 0
        self.aborts = 0
        self.roots_elided = 0
        self.calls_elided = 0
        self.committed_at_ns: Optional[float] = None
        self.abort_log: List[tuple] = []
        self._events_per_root = 0.0
        self._events_per_call = 0.0
        self._elided_estimate = 0.0
        self._ev0 = 0
        self._done0 = 0
        self._dead = False       # max_aborts exhausted: detailed for good

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Arm the telemetry taps and start the window tick."""
        sim = self.sim
        self.window_ns = self.cfg.window_ns or self._auto_window_ns()
        self._horizon_ns = sim.duration_s * 1e9
        for server in sim.servers:
            server.hybrid = self
            for village in server.villages:
                village.hybrid_observe = self._observe_segment
        self._ev0 = self.engine.events_processed
        self._done0 = len(sim.recorder)
        self.engine.schedule(self.window_ns, self._tick)

    def _auto_window_ns(self) -> float:
        """Default window: long enough that a window sees
        ``min_samples`` roots on average at the offered rate (window
        statistics are meaningless below that mass), with a 1 ms floor
        so a torrent of arrivals cannot shrink ticks into event-loop
        noise.  Deliberately *not* scaled with run duration — detection
        latency should depend on the workload's mixing time, not on how
        long the caller happens to simulate."""
        sim = self.sim
        rate = sim.rps_per_server * sim.n_servers
        mass_ns = self.cfg.min_samples / rate * 1e9 if rate > 0 else 1e6
        return max(mass_ns, 1e6)

    # ----------------------------------------------------------- telemetry

    def _observe_segment(self, service: str, duration_ns: float) -> None:
        """Per-segment service-time tap (wired into every village)."""
        self._seg_sum += duration_ns
        self._seg_count += 1

    def observe_call(self, target: str, latency_ns: float) -> None:
        """Parent-visible latency of one detailed downstream RPC."""
        self._call_cur.setdefault(target, []).append(latency_ns)

    def _smooth(self, name: str, value: float) -> float:
        prev = self._ewma.get(name)
        cur = value if prev is None else 0.5 * prev + 0.5 * value
        self._ewma[name] = cur
        return cur

    # ---------------------------------------------------------------- tick

    def _structurally_unsafe(self) -> bool:
        """True when the run may take a non-steady-state turn the model
        cannot represent: fault injection (checked at tick time because
        ``install_faults`` may arm an injector after construction),
        autoscaling, or a resilience policy rerouting calls."""
        sim = self.sim
        return (sim.injector is not None
                or sim.autoscaler is not None
                or sim.resilience is not None)

    def _tick(self) -> None:
        if self.engine.now >= self._horizon_ns:
            # Past the arrival horizon the cluster only drains; there is
            # nothing left to elide and the falling rate must not be
            # mistaken for drift.
            return
        if not self._dead:
            if self._structurally_unsafe():
                if self.state is not DETECTING:
                    self._abort("structural")
            else:
                self._window_close()
        if self.engine.peek_time() is not None:
            self.engine.schedule(self.window_ns, self._tick)

    def _window_close(self) -> None:
        sim = self.sim
        window_s = self.window_ns * 1e-9
        arrivals = self._arrivals_cur
        rate = self._smooth("rate", arrivals / window_s)
        self._rate_hist.append(arrivals)
        trailing = (sum(self._rate_hist)
                    / (len(self._rate_hist) * window_s))
        mean_seg = self._seg_sum / self._seg_count if self._seg_count else 0.0
        occupancy = float(sum(v.rq.occupancy for s in sim.servers
                              for v in s.villages))
        new_roots = sim.recorder._latencies[self._done0:]
        self._done0 = len(sim.recorder)
        calls_cur, self._call_cur = self._call_cur, {}
        self._arrivals_cur = 0
        self._seg_sum = 0.0
        self._seg_count = 0
        if self.state is COMMITTED:
            self._guard(trailing)
            return
        if self.state is CALIBRATING:
            # The guard is live during calibration too: a drifting load
            # invalidates the samples, so start over.
            self._guard(trailing)
            if self.state is not CALIBRATING:
                return
            self._cal_arrivals += arrivals
            self._cal_roots.extend(new_roots)
            for name, vals in calls_cur.items():
                self._cal_calls.setdefault(name, []).extend(vals)
            if len(self._cal_roots) >= self.cfg.calibration_roots \
                    and self._tail_stable():
                self._commit()
            return
        series = {"rate": rate,
                  "occupancy": self._smooth("occupancy", occupancy),
                  "service_ns": self._smooth("service_ns", mean_seg)}
        if self.detector.observe(series):
            self.state = CALIBRATING
            self._committed_rate = trailing
            self._cal_arrivals = 0
            self._cal_t0 = self.engine.now

    def _tail_stable(self) -> bool:
        """Tail-convergence gate: queueing tails mix slowly (rare long
        excursions keep raising the measured p99 well after the mean has
        settled), so eliding as soon as the *mean* converges freezes an
        underestimated tail.  Compare the tail level (mean of the top
        5%) of the first and second halves of the calibration sample;
        commit only once they agree within ``tol/2``."""
        lats = np.asarray(self._cal_roots)
        half = len(lats) // 2
        first, second = lats[:half], lats[half:]
        a = float(np.mean(np.sort(first)[-max(1, len(first) // 20):]))
        b = float(np.mean(np.sort(second)[-max(1, len(second) // 20):]))
        return abs(b - a) <= 0.5 * self.cfg.tol * max(a, b)

    # -------------------------------------------------------------- commit

    def _commit(self) -> None:
        sim = self.sim
        check = sim.check
        self._dists[sim.app.root] = EmpiricalDist(self._cal_roots)
        self.committed.add(sim.app.root)
        for name in sorted(self._cal_calls):
            if name == sim.app.root:
                continue
            if len(self._cal_calls[name]) >= self.cfg.min_samples:
                self._dists[name] = EmpiricalDist(self._cal_calls[name])
                self.committed.add(name)
        # Refine the guard reference to the whole-calibration-span
        # rate: far more mass than any single window's estimate.
        span_s = (self.engine.now - self._cal_t0) * 1e-9
        if span_s > 0 and self._cal_arrivals:
            self._committed_rate = self._cal_arrivals / span_s
        self.state = COMMITTED
        self.commits += len(self.committed)
        if self.committed_at_ns is None:
            self.committed_at_ns = self.engine.now
        done = len(sim.recorder)
        if done:
            self._events_per_root = \
                (self.engine.events_processed - self._ev0) / done
            self._events_per_call = self._events_per_root / \
                (1.0 + sim.app.mean_rpc_count())
        if check.enabled:
            for name in sorted(self.committed):
                check.hybrid_commit(name)

    # --------------------------------------------------------------- guard

    def _guard_band(self, ref: float) -> float:
        """Out-of-band threshold around the committed reference rate.

        The base band covers Poisson counting noise and genuine drift
        tolerance.  A *stationary-but-bursty* arrival profile (lognormal
        windows, MMPP phases) adds window-to-window rate variance that
        is not drift — the profile reports it via ``count_cv`` over the
        trailing-average span, and the band widens to 3 sigma of that
        inherent variability.  Non-stationary profiles (diurnal, flash
        crowd, piecewise, trace replay) return None and keep the band
        sharp: a flash-crowd ramp must abort the fast path."""
        band = self.cfg.guard_factor * self.cfg.tol * max(ref, 1e-9)
        profile = getattr(self.sim, "rate_profile", None)
        if profile is None:
            return band
        span_s = max(1, len(self._rate_hist)) * self.window_ns * 1e-9
        cv = profile.count_cv(span_s) \
            if hasattr(profile, "count_cv") else None
        if cv:
            band = max(band, 3.0 * cv * max(ref, 1e-9))
        return band

    def _guard(self, rate: float) -> None:
        """Cheap drift predicate on every window while armed.

        Requires two *consecutive* out-of-band windows before
        aborting: genuine load drift persists across windows, while a
        single Poisson-noisy window does not, and an abort is expensive
        (the run stays detailed until the detector re-converges)."""
        ref = self._committed_rate
        band = self._guard_band(ref)
        if abs(rate - ref) > band:
            self._guard_strikes += 1
            if self._guard_strikes >= 2:
                self._abort("rate-drift")
        else:
            self._guard_strikes = 0

    def _abort(self, reason: str) -> None:
        """Back to detailed mode; in-flight analytic completions still
        fire (their accounting matches real completions), new work takes
        the detailed path against the still-materialized queues."""
        was_committed = self.state is COMMITTED
        self.state = DETECTING
        self.committed.clear()
        self._dists.clear()
        self._cal_roots = []
        self._cal_calls = {}
        self._ewma.clear()
        self._guard_strikes = 0
        self._rate_hist.clear()
        self.detector.reset()
        self._done0 = len(self.sim.recorder)
        self._ev0 = self.engine.events_processed
        if not was_committed:
            return      # a calibration restart, not a fast-path abort
        self.aborts += 1
        self.abort_log.append((self.engine.now, reason))
        if self.sim.check.enabled:
            self.sim.check.hybrid_abort(reason)
        if self.aborts >= self.cfg.max_aborts:
            self._dead = True

    # ----------------------------------------------------------- fast path

    def intercept_root(self, server, arrival_ns: float) -> bool:
        """Called for every root issue; True = completion is analytic."""
        self._arrivals_cur += 1
        root = self.sim.app.root
        if root not in self.committed:
            return False
        latency = self._dists[root].sample(self.draws)
        delay = max(0.0, arrival_ns + latency - self.engine.now)
        self.engine.schedule(delay, self._complete_root, server, arrival_ns)
        self.roots_elided += 1
        self._elided_estimate += max(0.0, self._events_per_root - 1.0)
        return True

    def _complete_root(self, server, arrival_ns: float) -> None:
        """An elided root's analytic completion.  It goes through
        :meth:`ClusterSimulation.root_done`, the detailed roots' ledger,
        so the LB, root conservation, recorders and metrics balance
        exactly as if the request had been simulated."""
        sim = self.sim
        if sim.check.enabled:
            sim.check.hybrid_elide_root()
        sim.root_done(server, arrival_ns)
        self.engine.events_elided = int(self._elided_estimate)

    def should_elide_call(self, target: str) -> bool:
        return target in self.committed

    def elide_call(self, parent, village, target: str) -> None:
        """Answer a downstream RPC analytically: after a sampled
        parent-visible latency the parent advances exactly as it would
        on a real response (same wakeup path through the scheduler)."""
        self.calls_elided += 1
        self._elided_estimate += max(0.0, self._events_per_call - 1.0)
        if self.sim.check.enabled:
            self.sim.check.hybrid_elide_call(target)
        latency = self._dists[target].sample(self.draws)

        def respond() -> None:
            village.make_ready(parent)

        self.engine.schedule(latency, respond)

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        """JSON-safe ``stats["hybrid"]`` entry, in deterministic order."""
        sim = self.sim
        out = {
            "tol": self.cfg.tol,
            "window_ns": self.window_ns,
            "state": self.state,
            "windows_seen": self.detector.windows_seen,
            "commits": self.commits,
            "aborts": self.aborts,
            "committed_at_ns": self.committed_at_ns,
            "abort_log": [[t, reason] for t, reason in self.abort_log],
            "services_committed": sorted(self.committed),
            "roots_elided": self.roots_elided,
            "calls_elided": self.calls_elided,
            "events_elided": self.engine.events_elided,
            "models": {},
        }
        for name in sorted(self._dists):
            dist = self._dists[name]
            out["models"][name] = {
                "samples": len(dist),
                "mean_ns": dist.mean,
                "p99_ns": dist.quantile(0.99),
            }
        if self.committed:
            demand = service_demand_ns(sim.config, sim.app)
            mgk = MGkModel(
                rate_rps=self._committed_rate,
                service_ns=demand,
                servers=sim.config.n_cores * sim.n_servers,
                cs2=1.0)
            out["mgk"] = mgk.as_dict()
        return out
