"""Runtime state of one service invocation."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional


class RequestStatus(enum.Enum):
    """RQ entry status field (Section 4.3)."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


_ids = itertools.count()


@dataclass
class RequestRecord:
    """One in-flight invocation of a service (an RQ entry + its context).

    The entry's Request Context Memory contents — input, destination of
    the results, saved process state — are represented by the record
    itself; ``on_complete`` delivers the response to the caller.
    """

    app_name: str
    service: str
    segments: List[float]                      # instructions per segment
    on_complete: Callable[["RequestRecord"], None]
    arrival_ns: float = 0.0
    status: RequestStatus = RequestStatus.READY
    seg_index: int = 0
    village: Optional[int] = None
    server: Optional[int] = None
    last_core: Optional[Any] = None            # for resume-warmth modelling
    has_run: bool = False                      # state must be restored?
    depth: int = 0                             # call-tree depth
    finish_ns: Optional[float] = None
    queue_wait_ns: float = 0.0
    rejected: bool = False
    failed: bool = False                       # lost to a fault (retries exhausted)
    req_id: int = field(default_factory=_ids.__next__)

    # Lifecycle state stamped by the village, its RQ and the server.
    # Plain class attributes, not dataclass fields: construction does not
    # pay for them, and the first write shadows the default per record.
    _owner_village = None          # home Village (set on RQ admission)
    _enqueue_ns = 0.0              # village admission time
    _first_dispatch_ns = None      # first Dequeue (None: never ran)
    _ready_since_ns = 0.0          # last enqueue / blocked -> ready
    _rq_wait_ns = 0.0              # READY residency of the last dequeue
    _rq_seq = 0                    # RQ admission counter (policy tie-break)
    _rq_soft = False               # NIC-buffered entry, holds no slot
    _rq_epoch = 0                  # RQ epoch at admission (purge guard)
    _fetch_remaining = 0           # state-fetch messages still in flight
    _fetch_cont = None             # (village, core) parked on the fetch

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def current_segment_instructions(self) -> float:
        return self.segments[self.seg_index]

    @property
    def is_last_segment(self) -> bool:
        return self.seg_index == self.n_segments - 1

    def advance_segment(self) -> None:
        if self.seg_index == len(self.segments) - 1:      # is_last_segment
            raise RuntimeError(f"request {self.req_id} has no more segments")
        self.seg_index += 1
