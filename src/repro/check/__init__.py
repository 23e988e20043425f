"""repro.check: opt-in invariant sanitizer for the whole simulation stack.

The off-switch mirrors the telemetry tracer's: every engine carries
:data:`NULL_CHECK`, which is only an ``enabled = False`` flag with no
hooks, and instrumentation sites guard with ``if check.enabled:`` so
disabled checking costs one attribute load + branch.
:class:`CheckContext` defines the hooks: it validates per-event
invariants (clock monotonicity, RQ structure, resource bounds) and
balances conservation ledgers at drain (requests, ICN messages,
resource leaks, span trees).

Entry points: pass ``check=CheckContext()`` to
:class:`repro.systems.cluster.ClusterSimulation` / ``simulate``, use the
``--check`` CLI flags, or run the randomized harness via
``repro validate`` (:mod:`repro.check.harness`).

Only the null sanitizer loads with the package; the live one and the
span-tree check load on first access (see :mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.check.null import NULL_CHECK, NullCheckContext

if TYPE_CHECKING:
    from repro.check.context import CheckContext, CheckError, Violation
    from repro.check.spans import check_span_tree

__all__ = [
    "NULL_CHECK",
    "CheckContext",
    "CheckError",
    "NullCheckContext",
    "Violation",
    "check_span_tree",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".context": ("CheckContext", "CheckError", "Violation"),
    ".spans": ("check_span_tree",),
})
