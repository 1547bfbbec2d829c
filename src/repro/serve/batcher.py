"""Cross-user micro-batching: the arrival-ordered pending queue.

The :class:`MicroBatcher` is the scheduling half of the serving layer.  It
owns the bounded queue of pending requests in arrival order.  A batch
closes when it is full (:meth:`repro.serve.PoseServer.enqueue` flushes at
``max_batch_size``) or when its caller flushes (every socket round flushes
at once), so in serving the queue never holds more than one batch.  Each
request carries an absolute deadline — its arrival time plus its traffic
class's latency budget — that only feeds accounting: a request served past
it counts in ``deadline_misses``.  The batcher applies backpressure when
producers outrun the model, kept single-threaded and deterministic so
serving results are replayable.

Execution of a drained batch belongs to :class:`repro.serve.PoseServer`; the
batcher never touches the model.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Hashable, List, Optional

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

    __slots__ = ("user_id", "fused", "pending", "arrival", "deadline", "traffic_class")

    def __init__(
        self,
        user_id: Hashable,
        fused: PointCloudFrame,
        pending: PendingPrediction,
        arrival: float,
        deadline: float,
        traffic_class: str = "interactive",
    ) -> None:
        self.user_id = user_id
        self.fused = fused
        self.pending = pending
        self.arrival = arrival
        self.deadline = deadline
        self.traffic_class = traffic_class

    def __repr__(self) -> str:  # keep dataclass-era debuggability
        return (
            f"ServeRequest(user_id={self.user_id!r}, "
            f"sequence={self.pending.sequence}, arrival={self.arrival!r}, "
            f"deadline={self.deadline!r}, traffic_class={self.traffic_class!r})"
        )


class MicroBatcher:
    """Bounded deterministic arrival-order queue of :class:`ServeRequest` objects."""

    def __init__(self, config: ServeConfig, metrics: Optional[ServeMetrics] = None) -> None:
        self.config = config
        self.metrics = metrics
        self._pending: Deque[ServeRequest] = deque()

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
        by arrival, whatever its deadline — is dropped and its handle
        resolves to the dropped state with a reason; it never hangs a
        poller.
        """
        if len(self._pending) < self.config.max_queue_depth:
            return
        if self.config.overflow == "reject":
            raise QueueFull(
                f"pending queue is at max_queue_depth={self.config.max_queue_depth}",
                retry_after_ms=self.config.scheduler.retry_after_ms,
            )
        self._pending.popleft().pending._drop(
            reason="evicted by a newer arrival under drop_oldest"
        )
        if self.metrics is not None:
            self.metrics.record_drop()

    def enqueue(self, request: ServeRequest) -> None:
        """Append an admitted request (see :meth:`admit`)."""
        self._pending.append(request)

    def drain(self) -> List[ServeRequest]:
        """Pop the next micro-batch: the first ``max_batch_size`` arrivals."""
        count = min(len(self._pending), self.config.max_batch_size)
        return [self._pending.popleft() for _ in range(count)]
