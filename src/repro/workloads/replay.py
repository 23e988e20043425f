"""Trace replay: drive arrivals from recorded timestamps.

The Alibaba characterization (PAPER.md Section 3) is built from
production traces; when the raw per-request timestamps *are* available
(exported from a real deployment, or from a previous simulation via
:func:`save_trace`), :class:`TraceReplay` feeds them straight into
``ClusterSimulation`` in place of a synthetic arrival process.

File formats (both round-trip through :func:`save_trace` /
:func:`load_trace`):

* **CSV** — one arrival per line, nanoseconds since trace start; an
  optional non-numeric header line (``arrival_ns``) is skipped;
* **JSON** — either a bare list of times or ``{"times_ns": [...]}``.

A bundled sample trace (``data/alibaba_sample.csv``) is generated from
the :class:`~repro.workloads.alibaba.AlibabaTraceGenerator` per-server
load marginals (lognormal window rates matching Figure 2), so the
``--trace-in`` CLI path is exercisable without external data.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.workloads.alibaba import AlibabaTraceGenerator
from repro.workloads.arrival import arrival_times


@dataclass(frozen=True)
class TraceReplay:
    """Arrival generator that replays a fixed schedule of times.

    ``times_ns`` are nanoseconds relative to the trace start.  The
    adapter duck-types :class:`~repro.workloads.arrival.RateProfile`:
    ``generate`` ignores the nominal rate and RNG entirely (replay is
    deterministic by construction) and returns the recorded times that
    fall inside the simulated horizon, offset by ``start_ns``.

    The aggregate trace describes *cluster-wide* arrivals; without a
    front-end LB the per-server arrival path deals round-robin slices
    (``times[i::n_servers]``), mirroring how an L4 balancer would have
    spread the recorded stream.
    """

    times_ns: Tuple[float, ...] = ()
    kind: str = "replay"

    #: Marks the adapter for ``ClusterSimulation``'s per-server
    #: partitioning (synthetic profiles draw per-server streams
    #: instead).
    is_replay = True

    def __post_init__(self):
        arr = np.asarray(self.times_ns, dtype=float)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            # A NaN would be dropped silently by generate()'s horizon cut.
            i = int(bad[0])
            raise ValueError(f"trace times must be finite: times_ns[{i}] "
                             f"= {arr[i]}")
        if len(arr) and (np.diff(arr) < 0).any():
            raise ValueError("trace times must be non-decreasing")
        if len(arr) and arr[0] < 0:
            raise ValueError("trace times must be >= 0")

    def generate(self, rate_per_s: float, duration_s: float,
                 rng: Optional[np.random.Generator] = None,
                 start_ns: float = 0.0) -> np.ndarray:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        t = np.asarray(self.times_ns, dtype=float)
        return start_ns + t[t < duration_s * 1e9]

    def count_cv(self, span_s: float) -> Optional[float]:
        return None     # arbitrary recorded load: guard stays sharp


# ------------------------------------------------------------------ files


def save_trace(path: str, times_ns: Sequence[float]) -> None:
    """Write a trace to ``path`` (format chosen by extension)."""
    path = os.fspath(path)
    times = [float(t) for t in times_ns]
    if path.endswith(".json"):
        with open(path, "w") as fh:
            json.dump({"times_ns": times}, fh)
    else:
        with open(path, "w") as fh:
            fh.write("arrival_ns\n")
            for t in times:
                fh.write(f"{t!r}\n")


def load_trace(path: str) -> TraceReplay:
    """Read a CSV/JSON trace file into a :class:`TraceReplay`."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"trace file not found: {path}")
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict):
            if "times_ns" not in payload:
                raise ValueError(
                    f"JSON trace {path} must be a list or have a "
                    f"'times_ns' key")
            payload = payload["times_ns"]
        times = [float(t) for t in payload]
    else:
        times = []
        with open(path) as fh:
            for line in fh:
                cell = line.split(",")[0].strip()
                if not cell:
                    continue
                try:
                    times.append(float(cell))
                except ValueError:
                    continue        # header / comment line
    return TraceReplay(times_ns=tuple(times))


# ----------------------------------------------------------- sample trace

#: Bundled Alibaba-marginal sample trace (see :func:`sample_alibaba_trace`).
SAMPLE_TRACE = os.path.join(os.path.dirname(__file__), "data",
                            "alibaba_sample.csv")


def sample_alibaba_trace(duration_s: float = 0.02,
                         mean_rps: float = 2000.0,
                         seed: int = 42,
                         window_s: float = 0.0025) -> TraceReplay:
    """Synthesize a replayable trace from the Alibaba load marginals.

    Window rates follow the Figure 2 per-server load lognormal
    (sigma 0.75), rescaled so the *mean* offered rate is ``mean_rps``;
    arrivals are Poisson within each window.  Deterministic in
    ``seed`` — the bundled ``data/alibaba_sample.csv`` is exactly
    ``sample_alibaba_trace()`` with the defaults.
    """
    if duration_s <= 0 or mean_rps <= 0:
        raise ValueError("duration and rate must be positive")
    rng = np.random.default_rng(seed)
    gen = AlibabaTraceGenerator(rng)
    n_windows = math.ceil(duration_s / window_s)
    rates = gen.server_rps(n_windows)
    # lognormal(mu, sigma) mean is exp(mu + sigma^2/2); rescale to mean_rps.
    rates *= mean_rps / math.exp(gen.RPS_MU + gen.RPS_SIGMA ** 2 / 2.0)
    out = []
    for i, rate in enumerate(rates):
        left = i * window_s
        window = min(window_s, duration_s - left)
        if window <= 0:
            break
        if rate > 0:
            out.append(arrival_times(float(rate), window, rng,
                                     start_ns=left * 1e9))
    times = np.concatenate(out) if out else np.empty(0)
    return TraceReplay(times_ns=tuple(float(t) for t in times))


def resolve_trace(trace: Union[str, TraceReplay, None]) -> Optional[TraceReplay]:
    """CLI helper: ``"sample"`` -> bundled trace, path -> file, None -> None."""
    if trace is None or isinstance(trace, TraceReplay):
        return trace
    if trace == "sample":
        if os.path.exists(SAMPLE_TRACE):
            return load_trace(SAMPLE_TRACE)
        return sample_alibaba_trace()
    return load_trace(trace)
