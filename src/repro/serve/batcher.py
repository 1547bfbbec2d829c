"""Cross-user micro-batching: the deadline-ordered pending queue.

The :class:`MicroBatcher` is the scheduling half of the serving layer.  It
owns the bounded queue of pending requests ordered **earliest-deadline-first**
(EDF): every request carries an absolute deadline — its arrival time plus its
traffic class's latency budget — and batches drain in deadline order.  That
is the per-request generalization of the old single global ``max_delay_ms``:
with one class and a uniform budget, EDF order *is* arrival order and the
batcher behaves bit-for-bit like its arrival-order predecessor.
:meth:`MicroBatcher.due` also reports a partial batch due once its earliest
deadline arrives, but only :meth:`repro.serve.PoseServer.poll` asks, and no
serving path calls it: a socket round flushes at once and
:meth:`repro.serve.PoseServer.enqueue` flushes at ``max_batch_size``, so in
serving the queue never holds more than one batch and EDF order never
changes which frames share one.  It applies backpressure when producers
outrun the model — the classic request-coalescing pattern of RAN/inference
serving systems (cf. ACCoRD in PAPERS.md), kept single-threaded and
deterministic here so serving results are replayable.

Execution of a drained batch belongs to :class:`repro.serve.PoseServer`; the
batcher never touches the model.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, List, Optional, Tuple

import numpy as np

from ..radar.pointcloud import PointCloudFrame
from .config import ServeConfig
from .metrics import ServeMetrics

__all__ = ["FrameDropped", "QueueFull", "PendingPrediction", "ServeRequest", "MicroBatcher"]


class FrameDropped(RuntimeError):
    """Raised when a request's prediction was dropped: evicted under
    backpressure, shed past its deadline, or lost to a shutdown or a
    crashed shard.

    ``retry_after_ms``, when set, is the backoff hint the dropping side
    attaches (copied onto the correlated wire error frame).
    """

    def __init__(self, message: str, retry_after_ms: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class QueueFull(RuntimeError):
    """Raised under the ``"reject"`` overflow policy when the queue is full."""

    def __init__(self, message: str, retry_after_ms: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class PendingPrediction:
    """Handle to a prediction that a future micro-batch will produce.

    The handle resolves when the request's batch is flushed.  Calling
    :meth:`result` forces outstanding flushes first (``flush`` runs one and
    returns how many predictions it produced), so a caller that cannot wait
    for co-riders still gets an answer synchronously.  One handle serves
    both servers: :class:`repro.serve.PoseServer` passes its own flush, and
    :class:`repro.serve.ProcessShardedPoseServer` a flush of the request's
    shard, whose event ledger resolves the handle.  A dropped handle — an
    eviction, a shutdown, a crashed shard — resolves to the dropped state
    with a reason, never left permanently pending, so a poller always
    observes an outcome.
    """

    __slots__ = ("user_id", "sequence", "_value", "_dropped", "_drop_reason", "_flush")

    def __init__(self, user_id: Hashable, sequence: int, flush: Callable[[], int]) -> None:
        self.user_id = user_id
        self.sequence = sequence
        self._value: Optional[np.ndarray] = None
        self._dropped = False
        self._drop_reason: Optional[str] = None
        self._flush = flush

    @property
    def done(self) -> bool:
        return self._value is not None

    @property
    def dropped(self) -> bool:
        return self._dropped

    @property
    def drop_reason(self) -> Optional[str]:
        """Why this request was dropped (``None`` while not dropped)."""
        return self._drop_reason

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value

    def _drop(self, reason: str) -> None:
        self._dropped = True
        self._drop_reason = reason

    def result(self, flush: bool = True) -> np.ndarray:
        """The ``(joints, 3)`` prediction, forcing a flush if still pending."""
        while self._value is None and not self._dropped and flush:
            if self._flush() == 0:
                break
        if self._dropped:
            raise FrameDropped(
                f"request {self.sequence} of user {self.user_id!r} was dropped "
                f"({self._drop_reason})"
            )
        if self._value is None:
            raise RuntimeError(
                f"request {self.sequence} of user {self.user_id!r} is still pending"
            )
        return self._value


class ServeRequest:
    """One enqueued frame: the fused cloud plus scheduling bookkeeping."""

    __slots__ = ("user_id", "fused", "pending", "arrival", "deadline", "traffic_class", "features")

    def __init__(
        self,
        user_id: Hashable,
        fused: PointCloudFrame,
        pending: PendingPrediction,
        arrival: float,
        deadline: Optional[float] = None,
        traffic_class: str = "interactive",
        features: Optional[np.ndarray] = None,
    ) -> None:
        self.user_id = user_id
        self.fused = fused
        self.pending = pending
        self.arrival = arrival
        # Back-compat: a request built without a deadline closes immediately,
        # like a zero-budget class would.
        self.deadline = deadline if deadline is not None else arrival
        self.traffic_class = traffic_class
        self.features = features

    def __repr__(self) -> str:  # keep dataclass-era debuggability
        return (
            f"ServeRequest(user_id={self.user_id!r}, "
            f"sequence={self.pending.sequence}, arrival={self.arrival!r}, "
            f"deadline={self.deadline!r}, traffic_class={self.traffic_class!r})"
        )


class MicroBatcher:
    """Bounded deterministic EDF queue of :class:`ServeRequest` objects.

    The heap orders pending requests by ``(deadline, sequence)``: earliest
    deadline first, arrival order as the deterministic tiebreak.  Because
    the inference kernels are batch-composition invariant, the EDF
    reordering never changes a request's predicted values — only *when* it
    is served.
    """

    def __init__(self, config: ServeConfig, metrics: Optional[ServeMetrics] = None) -> None:
        self.config = config
        self.metrics = metrics
        self._pending: List[Tuple[float, int, ServeRequest]] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        """Whether the next flush is due on capacity grounds."""
        return len(self._pending) >= self.config.max_batch_size

    def admit(self) -> None:
        """Make room for one incoming request per the overflow policy.

        Called *before* the request is built so a rejected submission has no
        side effects (in particular, it must not touch the user's session
        ring).  Under ``"drop_oldest"`` the oldest pending request — oldest
        by *arrival*, not by deadline, so a loose-budget request cannot
        shield itself from eviction — is dropped and its handle resolves to
        the dropped state with a reason and retry hint; it never hangs a
        poller.
        """
        if len(self._pending) < self.config.max_queue_depth:
            return
        retry_after_ms = self.config.scheduler.retry_after_ms
        if self.config.overflow == "reject":
            raise QueueFull(
                f"pending queue is at max_queue_depth={self.config.max_queue_depth}",
                retry_after_ms=retry_after_ms,
            )
        index = min(
            range(len(self._pending)), key=lambda position: self._pending[position][1]
        )
        _, _, oldest = self._pending.pop(index)
        heapq.heapify(self._pending)
        oldest.pending._drop(reason="evicted by a newer arrival under drop_oldest")
        if self.metrics is not None:
            self.metrics.record_drop()

    def enqueue(self, request: ServeRequest) -> None:
        """Push an admitted request (see :meth:`admit`) in deadline order."""
        heapq.heappush(
            self._pending, (request.deadline, request.pending.sequence, request)
        )

    def oldest_age(self, now: float) -> float:
        """Seconds the oldest pending request has waited (0.0 when empty)."""
        if not self._pending:
            return 0.0
        earliest_arrival = min(entry[2].arrival for entry in self._pending)
        return max(0.0, now - earliest_arrival)

    def earliest_deadline(self) -> Optional[float]:
        """The next batch-close time (``None`` when the queue is empty)."""
        return self._pending[0][0] if self._pending else None

    def due(self, now: float) -> bool:
        """Whether a flush is due: capacity reached or a deadline arrived."""
        if not self._pending:
            return False
        if self.full:
            return True
        return now >= self._pending[0][0]

    def drain(self) -> List[ServeRequest]:
        """Pop the next micro-batch: up to ``max_batch_size`` requests, EDF."""
        count = min(len(self._pending), self.config.max_batch_size)
        return [heapq.heappop(self._pending)[2] for _ in range(count)]

    def clear(self) -> int:
        """Drop every pending request (server shutdown); returns the count."""
        count = len(self._pending)
        while self._pending:
            _, _, request = heapq.heappop(self._pending)
            request.pending._drop(reason="server shutdown")
            if self.metrics is not None:
                self.metrics.record_drop()
        return count
