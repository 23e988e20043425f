"""Open-loop arrival processes: stationary Poisson plus rate profiles.

The paper's tail-at-scale story is driven by *load dynamics*: diurnal
curves, bursty Markov-modulated phases, and flash crowds (Section 3 /
the Alibaba characterization).  This module layers a deterministic
:class:`RateProfile` abstraction over the classic Poisson generator:

* ``poisson`` — :class:`ConstantProfile`, the stationary process every
  figure uses (kept byte-identical to the pre-profile generator);
* ``bursty`` — :class:`BurstyProfile`, the doubly-stochastic
  (lognormal-modulated) process of Figure 2;
* ``diurnal`` — :class:`DiurnalProfile`, a sinusoidal day/night curve
  compressed into the simulated horizon;
* ``mmpp`` — :class:`MmppProfile`, a Markov-modulated Poisson process
  alternating baseline and burst phases with exponential dwell times;
* ``flash`` — :class:`FlashCrowdProfile`, a ramp/hold/decay load spike;
* ``ramp`` — :class:`PiecewiseProfile`, a piecewise-linear composite.

**RNG draw-order discipline** (the docs/PERFORMANCE.md determinism
contract): every profile consumes its stream in a fixed, documented
order — (1) the profile's own state draws, if any (MMPP phase dwells);
(2) the homogeneous candidate gaps at the peak rate, drawn in bulk via
:func:`arrival_times` (including its top-up loop); (3) one bulk uniform
per candidate for the thinning accept test.  Identical seeds therefore
yield byte-identical schedules on every code path that preserves this
order (the LB-aggregate and per-server arrival paths both do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np


def arrival_times(rate_per_s: float, duration_s: float,
                  rng: np.random.Generator, start_ns: float = 0.0) -> np.ndarray:
    """All Poisson arrivals (ns) within ``duration_s`` seconds."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    horizon = start_ns + duration_s * 1e9
    # Draw in bulk with a safety margin, then trim.
    expected = rate_per_s * duration_s
    n = int(expected + 6 * np.sqrt(expected + 10) + 10)
    gaps = rng.exponential(1e9 / rate_per_s, size=n)
    times = start_ns + np.cumsum(gaps)
    while times[-1] < horizon:
        extra = rng.exponential(1e9 / rate_per_s, size=max(16, n // 4))
        times = np.concatenate([times, times[-1] + np.cumsum(extra)])
    return times[times < horizon]


def bursty_arrival_times(mean_rate_per_s: float, duration_s: float,
                         rng: np.random.Generator,
                         burst_sigma: float = 0.75,
                         window_s: float = 0.005,
                         start_ns: float = 0.0) -> np.ndarray:
    """Bursty arrivals: a doubly-stochastic (modulated) Poisson process.

    The rate of each ``window_s`` window is drawn from a lognormal whose
    sigma matches the per-server load burstiness the paper measures in
    the Alibaba traces (Figure 2: median ~500 RPS but 5%% of seconds
    above 3x the median); arrivals are Poisson within the window.

    Window boundaries are computed by *index* (``i * window_s``), never
    by accumulating a float sum — a ``t += window`` accumulator drifts
    off the grid over long horizons (at 10 s / 5 ms windows the 2000th
    boundary lands ~1e-13 s off, and every window after it inherits the
    error), which broke long-horizon reproducibility against any
    independently computed boundary.
    """
    if duration_s <= 0 or mean_rate_per_s <= 0:
        raise ValueError("duration and rate must be positive")
    if burst_sigma < 0:
        raise ValueError("burst_sigma must be >= 0")
    # lognormal(mu, sigma) mean is exp(mu + sigma^2/2): keep the mean at
    # mean_rate_per_s.
    mu = np.log(mean_rate_per_s) - burst_sigma ** 2 / 2.0
    n_windows = math.ceil(duration_s / window_s)
    out = []
    for i in range(n_windows):
        left = i * window_s
        window = min(window_s, duration_s - left)
        if window <= 0:
            break
        rate = float(rng.lognormal(mu, burst_sigma))
        if rate > 0:
            arrivals = arrival_times(rate, window, rng,
                                     start_ns=start_ns + left * 1e9)
            out.append(arrivals)
    return np.concatenate(out) if out else np.empty(0)


# --------------------------------------------------------------- profiles


def _thin(rate_per_s: float, duration_s: float, rng: np.random.Generator,
          start_ns: float, peak: float, multiplier_of) -> np.ndarray:
    """Inhomogeneous-Poisson arrivals by thinning.

    Draws homogeneous candidates at ``rate_per_s * peak`` (one bulk
    :func:`arrival_times` call), then accepts each candidate at time
    ``t`` with probability ``multiplier_of(t) / peak`` using a single
    bulk uniform draw.  ``multiplier_of`` takes a float array of
    *profile-relative* seconds and returns the rate multiplier at each.
    """
    if peak <= 0:
        return np.empty(0)
    candidates = arrival_times(rate_per_s * peak, duration_s, rng,
                               start_ns=start_ns)
    if len(candidates) == 0:
        return candidates
    t_s = (candidates - start_ns) * 1e-9
    accept = rng.random(len(candidates)) * peak <= multiplier_of(t_s)
    return candidates[accept]


@dataclass(frozen=True)
class RateProfile:
    """Deterministic description of how offered load varies over a run.

    A profile is a *multiplier* over the nominal rate: ``simulate(...,
    rps_per_server=R, arrivals=profile)`` offers an instantaneous rate
    of ``R * m(t)`` requests/s, where each subclass's ``generate``
    thins a Poisson stream by its own ``m``.  Stationary profiles keep
    the time-averaged multiplier at 1.0 so the mean offered load always
    equals the nominal RPS, whatever the shape.

    Profiles are frozen dataclasses: hashable, picklable into sweep
    workers, and fingerprintable into the result-cache key (a
    :class:`~repro.runner.point.SweepPoint` may carry one directly).
    """

    #: Registry name (a dataclass field so two profile types with the
    #: same numeric fields can never fingerprint identically).
    kind: str = "constant"

    def generate(self, rate_per_s: float, duration_s: float,
                 rng: np.random.Generator,
                 start_ns: float = 0.0) -> np.ndarray:
        """Arrival times (ns) in ``[start_ns, start_ns + duration_s)``.

        Every returned time is strictly below the horizon; the RNG draw
        order follows the module contract (state draws, candidate gaps,
        accept uniforms).  The base profile is stationary Poisson: it
        calls :func:`arrival_times` verbatim (same draws, same trim).
        """
        return arrival_times(rate_per_s, duration_s, rng, start_ns=start_ns)

    # -- guard support ---------------------------------------------------
    def count_cv(self, span_s: float) -> Optional[float]:
        """Relative std of the arrival *count* over a ``span_s`` window
        under this profile, excluding Poisson counting noise.

        The hybrid drift guard widens its band by this much so that a
        profile's *inherent* window-to-window variability (bursty in
        the mean) is never mistaken for load drift.  Returns 0.0 for
        profiles whose windowed rate is constant, and None for
        non-stationary profiles — there the guard must stay sharp, so a
        diurnal ramp or flash crowd aborts the fast path as intended.
        """
        return 0.0


@dataclass(frozen=True)
class ConstantProfile(RateProfile):
    """Stationary Poisson arrivals — the paper's default process.

    It inherits :meth:`RateProfile.generate`, so ``arrivals="poisson"``
    stays byte-identical to the pre-profile simulator.
    """

    kind: str = "poisson"


@dataclass(frozen=True)
class BurstyProfile(RateProfile):
    """Lognormal-modulated Poisson bursts (Figure 2 burstiness).

    ``generate`` delegates to :func:`bursty_arrival_times` so the
    classic ``arrivals="bursty"`` path keeps its draw order.  The
    process is stationary in the mean — :meth:`count_cv` reports its
    inherent window variability so the hybrid guard can tell bursts
    from genuine drift.
    """

    kind: str = "bursty"

    burst_sigma: float = 0.75
    window_s: float = 0.005

    def __post_init__(self):
        if self.burst_sigma < 0:
            raise ValueError("burst_sigma must be >= 0")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")

    def generate(self, rate_per_s: float, duration_s: float,
                 rng: np.random.Generator,
                 start_ns: float = 0.0) -> np.ndarray:
        return bursty_arrival_times(rate_per_s, duration_s, rng,
                                    burst_sigma=self.burst_sigma,
                                    window_s=self.window_s,
                                    start_ns=start_ns)

    def count_cv(self, span_s: float) -> Optional[float]:
        # Lognormal rate cv per modulation window, averaged down by the
        # number of (independent) windows the span covers.
        cv = math.sqrt(math.expm1(self.burst_sigma ** 2))
        return cv / math.sqrt(max(1.0, span_s / self.window_s))


@dataclass(frozen=True)
class DiurnalProfile(RateProfile):
    """Sinusoidal day/night curve compressed into the simulated horizon.

    ``multiplier(t) = 1 + amplitude * sin(2 pi (t / period + phase))``
    — mean 1.0 over whole periods, peak ``1 + amplitude``.  The default
    period is a fraction of typical run lengths so short simulations
    still see both the ramp-up and the ramp-down.
    """

    kind: str = "diurnal"

    amplitude: float = 0.6
    period_s: float = 0.02
    phase: float = 0.0

    def __post_init__(self):
        if not 0 <= self.amplitude <= 1:
            raise ValueError("amplitude must be in [0, 1]")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")

    def generate(self, rate_per_s: float, duration_s: float,
                 rng: np.random.Generator,
                 start_ns: float = 0.0) -> np.ndarray:
        return _thin(rate_per_s, duration_s, rng, start_ns,
                     1.0 + self.amplitude,
                     lambda t_s: 1.0 + self.amplitude * np.sin(
                         2.0 * np.pi * (t_s / self.period_s + self.phase)))

    def count_cv(self, span_s: float) -> Optional[float]:
        return None     # non-stationary: the guard must stay sharp


@dataclass(frozen=True)
class MmppProfile(RateProfile):
    """Markov-modulated Poisson process: baseline/burst phase cycling.

    Phases alternate cyclically; each visit to phase ``i`` dwells an
    exponential time with mean ``mean_dwell_s[i]`` before moving on
    (the classic interrupted-Poisson shape for two phases).  The
    multipliers are normalized by the dwell-weighted mean so the
    process stays stationary at the nominal rate.

    Draw order per :meth:`generate` call: one exponential per phase
    visit (the dwell schedule, drawn first), then the thinning draws.
    """

    kind: str = "mmpp"

    multipliers: Tuple[float, ...] = (0.4, 3.4)
    mean_dwell_s: Tuple[float, ...] = (0.004, 0.001)

    def __post_init__(self):
        if len(self.multipliers) < 2 \
                or len(self.multipliers) != len(self.mean_dwell_s):
            raise ValueError("need >= 2 phases with one mean dwell each")
        if any(m < 0 for m in self.multipliers) \
                or all(m == 0 for m in self.multipliers):
            raise ValueError("phase multipliers must be >= 0, not all 0")
        if any(d <= 0 for d in self.mean_dwell_s):
            raise ValueError("mean dwells must be positive")

    def _normalized(self) -> Tuple[float, ...]:
        """Multipliers scaled to a dwell-weighted mean of exactly 1."""
        total = sum(self.mean_dwell_s)
        mean = sum(m * d for m, d in
                   zip(self.multipliers, self.mean_dwell_s)) / total
        return tuple(m / mean for m in self.multipliers)

    def generate(self, rate_per_s: float, duration_s: float,
                 rng: np.random.Generator,
                 start_ns: float = 0.0) -> np.ndarray:
        mults = self._normalized()
        n_phases = len(mults)
        # (1) dwell schedule: phase boundary times + that phase's rate.
        bounds, rates = [0.0], []
        t, phase = 0.0, 0
        while t < duration_s:
            t += float(rng.exponential(self.mean_dwell_s[phase]))
            rates.append(mults[phase])
            bounds.append(t)
            phase = (phase + 1) % n_phases
        bounds_arr = np.asarray(bounds[1:])      # right edges
        rates_arr = np.asarray(rates)

        def multiplier_of(t_s: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(bounds_arr, t_s, side="right")
            return rates_arr[np.minimum(idx, len(rates_arr) - 1)]

        # (2)+(3) candidate gaps at the peak rate, then accept draws.
        return _thin(rate_per_s, duration_s, rng, start_ns,
                     max(mults), multiplier_of)

    def count_cv(self, span_s: float) -> Optional[float]:
        mults = self._normalized()
        total = sum(self.mean_dwell_s)
        probs = [d / total for d in self.mean_dwell_s]
        mean = sum(p * m for p, m in zip(probs, mults))       # == 1.0
        var = sum(p * m * m for p, m in zip(probs, mults)) - mean ** 2
        cv = math.sqrt(max(0.0, var)) / mean
        return cv / math.sqrt(max(1.0, span_s / total))


@dataclass(frozen=True)
class FlashCrowdProfile(RateProfile):
    """A flash crowd: baseline, linear ramp to a spike, hold, decay.

    Times are fractions of the run so the same profile shape works at
    any duration: the ramp starts at ``at`` and reaches ``magnitude``
    over ``ramp``; the spike holds for ``hold`` and decays linearly
    back to baseline over ``decay``.
    """

    kind: str = "flash"

    at: float = 0.40
    ramp: float = 0.06
    hold: float = 0.22
    decay: float = 0.12
    magnitude: float = 3.0

    def __post_init__(self):
        if not 0 <= self.at < 1:
            raise ValueError("at must be in [0, 1)")
        if min(self.ramp, self.hold, self.decay) < 0:
            raise ValueError("ramp/hold/decay must be >= 0")
        if self.at + self.ramp + self.hold + self.decay > 1.0 + 1e-9:
            raise ValueError("flash phases must fit inside the run")
        if self.magnitude < 1:
            raise ValueError("magnitude must be >= 1")

    def _multiplier_frac(self, f: np.ndarray) -> np.ndarray:
        up0, up1 = self.at, self.at + self.ramp
        dn0 = up1 + self.hold
        dn1 = dn0 + self.decay
        m = np.ones_like(f)
        extra = self.magnitude - 1.0
        if self.ramp > 0:
            rising = (f >= up0) & (f < up1)
            m[rising] += extra * (f[rising] - up0) / self.ramp
        holding = (f >= up1) & (f < dn0)
        m[holding] = self.magnitude
        if self.decay > 0:
            falling = (f >= dn0) & (f < dn1)
            m[falling] = 1.0 + extra * (dn1 - f[falling]) / self.decay
        return m

    def generate(self, rate_per_s: float, duration_s: float,
                 rng: np.random.Generator,
                 start_ns: float = 0.0) -> np.ndarray:
        return _thin(rate_per_s, duration_s, rng, start_ns, self.magnitude,
                     lambda t_s: self._multiplier_frac(t_s / duration_s))

    def count_cv(self, span_s: float) -> Optional[float]:
        return None     # a flash crowd *is* drift: guard stays sharp

    # -- figW helpers ----------------------------------------------------
    def ramp_span(self, duration_s: float) -> Tuple[float, float]:
        """(start_s, end_s) of the up-ramp at a concrete duration."""
        return (self.at * duration_s, (self.at + self.ramp) * duration_s)


@dataclass(frozen=True)
class PiecewiseProfile(RateProfile):
    """Piecewise-linear composite: multiplier knots at run fractions.

    ``points`` maps run fraction (0..1) to a rate multiplier; the
    profile linearly interpolates between knots and holds the edge
    values outside them.  The default is a steady 0.5 -> 1.5 ramp.
    """

    kind: str = "ramp"

    points: Tuple[Tuple[float, float], ...] = ((0.0, 0.5), (1.0, 1.5))

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("need at least two (fraction, multiplier) "
                             "knots")
        fracs = [f for f, __ in self.points]
        if fracs != sorted(fracs):
            raise ValueError("knot fractions must be non-decreasing")
        if any(m < 0 for __, m in self.points):
            raise ValueError("multipliers must be >= 0")
        if max(m for __, m in self.points) <= 0:
            raise ValueError("at least one multiplier must be positive")

    def generate(self, rate_per_s: float, duration_s: float,
                 rng: np.random.Generator,
                 start_ns: float = 0.0) -> np.ndarray:
        fracs = np.asarray([f for f, __ in self.points])
        mults = np.asarray([m for __, m in self.points])
        return _thin(rate_per_s, duration_s, rng, start_ns,
                     max(m for __, m in self.points),
                     lambda t_s: np.interp(t_s / duration_s, fracs, mults))

    def count_cv(self, span_s: float) -> Optional[float]:
        return None     # generally non-stationary


# --------------------------------------------------------------- registry

#: Named default profiles (the CLI ``--arrivals`` choices).
PROFILES: Dict[str, RateProfile] = {
    "poisson": ConstantProfile(),
    "bursty": BurstyProfile(),
    "diurnal": DiurnalProfile(),
    "mmpp": MmppProfile(),
    "flash": FlashCrowdProfile(),
    "ramp": PiecewiseProfile(),
}

#: Stable name order for CLI choices and docs.
ARRIVAL_NAMES: Tuple[str, ...] = tuple(PROFILES)


def get_profile(arrivals: Union[str, RateProfile, object]) -> object:
    """Resolve an ``arrivals`` argument to a generator object.

    Accepts a registry name, a :class:`RateProfile` instance, or any
    duck-typed generator exposing ``generate(rate, duration_s, rng,
    start_ns)`` (the trace-replay adapter qualifies).
    """
    if isinstance(arrivals, str):
        try:
            return PROFILES[arrivals]
        except KeyError:
            raise ValueError(
                f"unknown arrival process {arrivals!r}; known: "
                f"{list(ARRIVAL_NAMES)} (or pass a RateProfile / "
                f"TraceReplay instance)") from None
    if hasattr(arrivals, "generate"):
        return arrivals
    raise ValueError(f"unknown arrival process {arrivals!r}")
