"""Dequeue-ordering policies for the Request Queue.

A policy maps a READY record to a sort key; the RQ serves the smallest
key first.  FCFS keys by arrival sequence (the hardware default of
Section 4.3); SRPT keys by remaining work, tie-broken by arrival.

Two further variants round out the intra-village decision point of the
policy layer:

* SJF from *measured* service times — the hardware cannot know a
  request's remaining work up front, but it can keep a per-service
  moving average of observed segment durations (a handful of counters
  next to the RQ) and serve the historically-shortest service first.
* Deadline-aware (EDF) — each entry is served in order of its implied
  deadline ``arrival + budget``, which under a uniform budget degrades
  gracefully to arrival order while letting callers prioritise by age.

Determinism contract: every key ends with ``rec._rq_seq``, the queue's
own admission counter, so ties never fall through to object identity or
insertion races — ``tests/test_determinism.py`` pins this for every
registered policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.request import RequestRecord


class DequeuePolicy:
    """Base: order READY entries by :meth:`key` (ascending)."""

    name = "base"

    def key(self, rec: RequestRecord) -> Tuple:
        raise NotImplementedError


class FcfsPolicy(DequeuePolicy):
    """First-come-first-serve by RQ arrival order."""

    name = "fcfs"

    def key(self, rec: RequestRecord) -> Tuple:
        return (rec._rq_seq,)


class SrptPolicy(DequeuePolicy):
    """Shortest Remaining Processing Time first.

    Remaining work is the sum of the request's unexecuted compute
    segments — what a hardware SRPT RQ could track in the Request
    Context Memory.
    """

    name = "srpt"

    def key(self, rec: RequestRecord) -> Tuple:
        remaining = sum(rec.segments[rec.seg_index:])
        return (remaining, rec._rq_seq)


class SjfPolicy(DequeuePolicy):
    """Shortest Job First from measured service times.

    Keeps an exponentially-weighted moving average of observed segment
    durations per service (fed by :meth:`observe`, called by the
    village on every executed segment) and orders READY entries by
    their service's current estimate.  Services never seen before sort
    first (estimate 0), which makes a cold queue behave like FCFS.

    Stateful: :func:`get_policy` returns a fresh instance per call so
    estimates never leak across runs (which would break the
    same-seed-same-result contract).
    """

    name = "sjf"

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._estimate_ns: Dict[str, float] = {}

    def observe(self, service: str, duration_ns: float) -> None:
        """Fold one measured segment duration into the service's EWMA."""
        prev = self._estimate_ns.get(service)
        if prev is None:
            self._estimate_ns[service] = duration_ns
        else:
            self._estimate_ns[service] = \
                prev + self.alpha * (duration_ns - prev)

    def key(self, rec: RequestRecord) -> Tuple:
        return (self._estimate_ns.get(rec.service, 0.0), rec._rq_seq)


class DeadlinePolicy(DequeuePolicy):
    """Earliest Deadline First over implied deadlines.

    Every entry's deadline is ``arrival_ns + budget_ns``; with one
    shared budget this reduces to arrival-time order (which differs
    from FCFS ``_rq_seq`` order for entries admitted out of arrival
    order, e.g. retried or stolen-and-returned requests).
    """

    name = "edf"

    def __init__(self, budget_ns: float = 1_000_000.0):
        if budget_ns < 0:
            raise ValueError("budget_ns must be >= 0")
        self.budget_ns = budget_ns

    def key(self, rec: RequestRecord) -> Tuple:
        return (rec.arrival_ns + self.budget_ns, rec._rq_seq)


FCFS_POLICY = FcfsPolicy()
SRPT_POLICY = SrptPolicy()

#: name -> zero-arg factory.  Stateless policies return their shared
#: singleton; stateful ones (SJF) build a fresh instance per call.
POLICY_FACTORIES = {
    "fcfs": lambda: FCFS_POLICY,
    "srpt": lambda: SRPT_POLICY,
    "sjf": SjfPolicy,
    "edf": DeadlinePolicy,
}

#: The registered policy names (the CLI's ``--rq-policy`` choices).
POLICY_NAMES = tuple(sorted(POLICY_FACTORIES))


def get_policy(name: str) -> DequeuePolicy:
    try:
        return POLICY_FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown dequeue policy {name!r}; "
                         f"known: {sorted(POLICY_FACTORIES)}") from None
