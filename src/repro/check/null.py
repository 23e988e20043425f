"""The disabled sanitizer every engine carries by default.

:class:`NullCheckContext` defines the hook interface and implements
every hook as a no-op; :data:`NULL_CHECK` is the shared instance.  This
module imports only :mod:`typing`, so the event kernel gets its
default observer without loading the live sanitizer in
:mod:`repro.check.context`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.check.context import Violation


class NullCheckContext:
    """Disabled sanitizer: every hook is a no-op.

    Also serves as the interface definition —
    :class:`~repro.check.context.CheckContext` overrides every method.
    """

    def __init__(self) -> None:
        #: An instance attribute, not a class one: CPython specializes
        #: the load of an instance attribute, and every hook site
        #: guards on this flag.
        self.enabled = False

    # --- engine
    def clock_advance(self, old_ns: float, new_ns: float) -> None:
        """The engine clock is about to move from ``old_ns`` to ``new_ns``."""

    # --- request queue
    def rq_admit(self, rq, rec, soft: bool = False) -> None:
        """An entry was admitted (slot or NIC-buffered soft entry)."""

    def rq_dequeue(self, rq, rec) -> None:
        """A READY entry was atomically dequeued for execution."""

    def rq_wakeup(self, rq, rec) -> None:
        """A blocked entry went back to READY."""

    def rq_complete(self, rq, rec, stale: bool = False) -> None:
        """An entry finished (``stale`` = it predates the last purge)."""

    def rq_purge(self, rq) -> None:
        """The queue is about to be wiped (village failure)."""

    # --- scheduling policies
    def rq_steal(self, village, rec) -> None:
        """``village`` stole a READY entry from a peer's queue."""

    def core_bypass(self, village, rec) -> None:
        """An arrival skipped the scheduler onto an idle core."""

    # --- NICs / ServiceMap
    def nic_dispatch(self, nic, service: str, village: int) -> None:
        """The ServiceMap picked ``village`` for ``service``."""

    def nic_reject(self, nic) -> None:
        """The top-level NIC overflow buffer rejected a request."""

    def nic_drop(self, nic) -> None:
        """A failed village NIC blackholed a message."""

    # --- on-package network
    def icn_send(self, net) -> None:
        """A routed message entered the ICN (multi-hop sends only)."""

    def icn_deliver(self, net) -> None:
        """A routed message reached its destination."""

    def icn_drop(self, net, in_flight: bool) -> None:
        """A message blackholed (``in_flight`` = after entering the ICN)."""

    # --- resources
    def resource_register(self, res) -> None:
        """A FIFO resource was created (for drain-time leak checks)."""

    def resource_event(self, res) -> None:
        """A resource started or finished a job."""

    # --- RPC / requests
    def request_created(self, rec) -> None:
        """A request record (root or child RPC) was created."""

    def ext_rejected(self, rec) -> None:
        """An external request was rejected (error response sent)."""

    # --- cluster roots
    def root_offered(self, n: int = 1) -> None:
        """``n`` client arrivals were scheduled (bulk increment: the
        arrival paths schedule whole vectorized batches at once)."""

    def root_done(self, kind: str) -> None:
        """A root request was answered (completed/rejected/failed)."""

    # --- datacenter tier (repro.dc)
    def lb_route(self, lb, server_id: int, active: bool) -> None:
        """The front-end LB routed one root request to ``server_id``."""

    def lb_scale(self, lb, action: str, server_id: int) -> None:
        """The autoscaler activated ("add") or drained a server."""

    # --- faults / compute
    def fault_applied(self, event, now_ns: float) -> None:
        """The injector applied a fault event."""

    def compute_segment(self, village, rec, duration_ns: float) -> None:
        """A compute segment was scheduled for ``duration_ns``."""

    # --- hybrid fast path (repro.hybrid)
    def hybrid_commit(self, service: str) -> None:
        """The controller committed ``service`` to analytic mode."""

    def hybrid_abort(self, reason: str) -> None:
        """The controller aborted back to detailed simulation."""

    def hybrid_elide_root(self) -> None:
        """A root request completed analytically (no per-event sim)."""

    def hybrid_elide_call(self, service: str) -> None:
        """A downstream RPC was answered analytically."""

    # --- lifecycle
    def finalize(self, sim=None, drained: bool = True) -> List[Violation]:
        """Run the drain-time balance checks; returns violations."""
        return []


#: Shared default instance; safe because NullCheckContext is stateless.
NULL_CHECK = NullCheckContext()
