"""Multi-shard serving: hash users onto N :class:`PoseServer` worker processes.

One :class:`PoseServer` is single-threaded by design; scaling past one core
means running several of them side by side.
:class:`ProcessShardedPoseServer` owns that layout:

* every user hashes onto a fixed shard (:func:`repro.runtime.shard_for`,
  stable across processes), so the user's session ring, adapted parameters
  and micro-batch co-riders all live on one shard — no cross-shard state;
* each shard is a :class:`PoseServer` in its own worker process
  (:class:`repro.serve.worker.ShardProcess`) with its own
  :class:`MicroBatcher`, :class:`SessionManager` and
  :class:`AdapterRegistry`, built from the same read-only estimator;
* metrics aggregate across shards (:meth:`ServeMetrics.aggregate`), and the
  Prometheus exposition labels each shard's samples with ``shard="<i>"``.

Because every serving route is batch-composition invariant, splitting users
over shards never changes a prediction: a replay through N shard processes
is bitwise identical to the same replay through one :class:`PoseServer`
with the same scheduling config — ``tests/serve/test_sharded_server.py``
and ``tests/serve/test_process_sharded.py`` pin this user for user.

The façade mirrors the :class:`PoseServer` surface (``enqueue`` / ``submit``
/ ``flush`` / ``adapt_users`` / ``metrics_snapshot``), so the
replay driver, the socket front-end and the examples run unchanged against
either.

A server collected without :meth:`~ProcessShardedPoseServer.close` is
closed by its finalizer; a close that fails there logs one JSON warning on
the ``repro.serve.sharded`` logger (``event: "shard_close_failed"``,
``reason``).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from functools import partial
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..core.pipeline import FusePoseEstimator
from ..dataset.loader import ArrayDataset
from ..dataset.sample import PoseDataset
from ..radar.pointcloud import PointCloudFrame
from ..runtime import shard_for
from .batcher import FrameDropped, PendingPrediction, QueueFull
from .config import ServeConfig
from .metrics import ServeMetrics, prometheus_exposition
from .policy import AdapterPolicy
from .faults import RetryPolicy
from .worker import (
    DEFAULT_MAX_RESTARTS,
    AdaptUsers,
    EnqueueBatch,
    ExportUser,
    Flush,
    ForgetUser,
    ImportUser,
    MetricsRequest,
    ShardCrashed,
    ShardEvents,
    ShardFactory,
    ShardProcess,
    ShardRemoteError,
)

__all__ = ["ProcessShardedPoseServer"]

_log = logging.getLogger(__name__)

#: the admission rejections a shard raises, re-raised in the parent by name
_REJECTIONS = {cls.__name__: cls for cls in (FrameDropped, QueueFull)}


def _rejection(name: str, detail: str, retry_after_ms: Optional[float]) -> Exception:
    """Rebuild a frame's in-worker rejection as the exception an in-process
    :class:`PoseServer` raises: same class, message and retry hint."""
    if name in _REJECTIONS:
        return _REJECTIONS[name](detail, retry_after_ms=retry_after_ms)
    if name == "ValueError":  # an unknown traffic class or a negative deadline
        return ValueError(detail)
    return ShardRemoteError(f"{name}: {detail}")


class ProcessShardedPoseServer:
    """N :class:`PoseServer` shards, each in its own worker process.

    Users are placed by :func:`repro.runtime.shard_for` and every shard
    serves under the same scheduling config, so a replay through N shard
    processes is bitwise identical to the same replay through a single
    :class:`PoseServer`.  Every shard's micro-batch flush runs in its own
    process, so on a multi-core host shard parallelism becomes real
    throughput.

    Lifecycle
    ---------
    Workers start in the constructor and stop in :meth:`close` (the class is
    a context manager).  A worker that dies mid-call is restarted with the
    same factory, within its restart budget; the crashed shard's
    outstanding predictions resolve as dropped, its session rings and
    adapted parameters are rebuilt from scratch (sessions re-warm on the
    next frames; call :meth:`adapt_users` again to restore personal
    parameters), and the in-flight call raises
    :class:`repro.serve.worker.ShardCrashed` so the caller sees the fault.

    With a spill directory configured on the adapter policy, a restarted
    worker re-attaches its shard's warm spill files, so previously adapted
    users keep their personal parameters across the crash (they come back
    warm and promote on their next request).

    Parameters
    ----------
    estimator:
        The shared (read-only) estimator; every shard serves the same base
        weights and feature builder.
    num_shards:
        Number of shard worker processes.  Users are assigned by a stable
        hash of their id, so the mapping survives restarts.
    config / policy:
        Forwarded to every shard (see :class:`PoseServer`).  One scheduling
        config everywhere keeps the shared-parameter kernel's GEMM block
        width identical across shards, which is what makes the sharded
        replay bitwise equal to a single-server replay.  ``policy`` wins
        over ``config.adapter``; a policy with a spill directory is split
        into per-shard subdirectories (``shard000/…``) so shards never
        share spill files.
    start_method:
        Multiprocessing start method override (default: ``fork`` where the
        platform has it, else ``spawn``).
    max_restarts / restart_backoff:
        Per-shard restart budget and capped-backoff pacing (see
        :class:`repro.serve.worker.ShardProcess`).  A crashed worker is
        restarted automatically until its budget is spent; past it the
        shard stays down and is reported degraded (``shards_degraded``
        gauge) instead of crash-looping.  ``max_restarts=None`` restarts
        without bound.
    """

    def __init__(
        self,
        estimator: FusePoseEstimator,
        num_shards: int = 2,
        config: Optional[ServeConfig] = None,
        start_method: Optional[str] = None,
        policy: Optional[AdapterPolicy] = None,
        max_restarts: Optional[int] = DEFAULT_MAX_RESTARTS,
        restart_backoff: Optional[RetryPolicy] = None,
        restart_sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.estimator = estimator
        self.config = config if config is not None else ServeConfig()
        if policy is None:
            policy = self.config.adapter
        self.policy = policy if policy is not None else AdapterPolicy()
        # Supervisor-side observability: restarts and the degraded gauge
        # happen in the parent (a dead worker cannot report its own death),
        # so they live on a parent ServeMetrics aggregated with the shards'.
        self.supervisor_metrics = ServeMetrics()
        factory = ShardFactory(estimator, self.config, policy=self.policy)
        self.workers: List[ShardProcess] = [
            ShardProcess(
                factory,
                index,
                start_method=start_method,
                max_restarts=max_restarts,
                restart_backoff=restart_backoff,
                sleep=restart_sleep,
            )
            for index in range(num_shards)
        ]
        self._outstanding: List[Dict[int, PendingPrediction]] = [
            {} for _ in range(num_shards)
        ]
        # Parent-side per-shard locks: the worker round-trip is serialized
        # inside ShardProcess, but the handle bookkeeping around it
        # (_outstanding registration + event application) must be atomic
        # with the round-trip too, or a concurrent caller's reply events
        # could resolve a sequence before its handle is registered.  The
        # asyncio front-end calls this class from multiple executor threads.
        self._shard_locks = [threading.Lock() for _ in range(num_shards)]
        #: thread-safe across shards: each shard's commands serialize on its
        #: own lock, so the front-end may dispatch shards in parallel.
        self.parallel_safe = True
        self._closed = False
        for worker in self.workers:
            worker.start()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.workers)

    def shard_index(self, user_id: Hashable) -> int:
        """The shard a user's traffic and state live on (stable hash)."""
        return shard_for(user_id, len(self.workers))

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _apply_events(self, shard_index: int, events: ShardEvents) -> None:
        outstanding = self._outstanding[shard_index]
        for sequence, value in events.resolved:
            handle = outstanding.pop(sequence, None)
            if handle is not None:
                handle._resolve(value)
        for sequence, reason in events.dropped:
            handle = outstanding.pop(sequence, None)
            if handle is not None:
                handle._drop(reason)

    def _call(self, shard_index: int, command, register=None):
        """One command round-trip, with crash recovery, atomically.

        The shard's parent-side lock covers the round-trip *and* the handle
        bookkeeping: ``register(reply)`` (when given) runs after the reply
        arrives but before its event ledger is applied — the window in
        which an enqueue's own resolution may already sit in the ledger.
        On a worker crash every outstanding handle of the shard resolves as
        dropped, the worker restarts (within its budget), and the crash
        propagates to the caller.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        worker = self.workers[shard_index]
        with self._shard_locks[shard_index]:
            try:
                reply = worker.call(command)
            except ShardCrashed:
                outstanding = self._outstanding[shard_index]
                for handle in outstanding.values():
                    handle._drop("shard worker crashed")
                outstanding.clear()
                # A shard past its restart budget stays down (degraded)
                # instead of crash-looping; callers keep getting
                # ShardDegraded and a router drains its users to replicas.
                if not worker.restart_budget_exhausted:
                    worker.restart()
                raise
            if register is not None:
                register(reply)
            self._apply_events(shard_index, reply.events)
        return reply

    def _flush_shard(self, shard_index: int) -> int:
        return self._call(shard_index, Flush()).produced

    # ------------------------------------------------------------------
    # Request path (PoseServer façade)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests awaiting resolution across all shard processes."""
        return sum(len(outstanding) for outstanding in self._outstanding)

    def enqueue(
        self,
        user_id: Hashable,
        frame: PointCloudFrame,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> PendingPrediction:
        """Route one frame to the user's shard process (may flush there).

        Raises the shard's rejection — ``FrameDropped``, ``QueueFull`` or
        ``ValueError`` — exactly as :meth:`PoseServer.enqueue` would.
        """
        (outcome,) = self.enqueue_many([(user_id, frame, priority, deadline_ms)])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def enqueue_many(
        self, items: Sequence[tuple]
    ) -> List[Union[PendingPrediction, Exception]]:
        """Enqueue many frames with one IPC hop per shard.

        Each item is ``(user_id, frame)``, optionally followed by the
        frame's ``priority`` and ``deadline_ms`` (see :meth:`enqueue`).
        Items are grouped by shard with their relative order preserved, so
        per-user frame order — what streaming fusion depends on — is
        exactly the caller's order; each shard sees a single
        :class:`EnqueueBatch` command.  Returns one outcome per item, in
        the original order: the handle, or the rejection its enqueue raised
        inside the worker (the same class, message and retry hint an
        in-process :class:`PoseServer` raises).  A mid-batch failure never
        orphans the admitted prefix — those handles stay registered and
        resolve normally.
        """
        outcomes: List[Union[PendingPrediction, Exception, None]] = [None] * len(items)
        by_shard: Dict[int, List[int]] = {}
        for position, item in enumerate(items):
            by_shard.setdefault(self.shard_index(item[0]), []).append(position)
        for index, positions in sorted(by_shard.items()):
            # each item padded to (user_id, frame, priority, deadline_ms)
            rows = [(*items[p], None, None)[:4] for p in positions]
            user_ids, frames, priorities, deadlines = zip(*rows)
            command = EnqueueBatch(
                user_ids=user_ids,
                points=tuple(frame.points for frame in frames),
                timestamps=tuple(float(frame.timestamp) for frame in frames),
                frame_indices=tuple(int(frame.frame_index) for frame in frames),
                priorities=priorities,
                deadlines_ms=deadlines,
            )

            def register(reply, index=index, positions=positions) -> None:
                # Handles must exist before the reply's event ledger is
                # applied: frames that completed a batch inside the worker
                # already sit resolved in that ledger.
                for position, sequence, error in zip(
                    positions, reply.sequences, reply.errors
                ):
                    if sequence is None:
                        outcomes[position] = _rejection(*error)
                        continue
                    handle = PendingPrediction(
                        items[position][0], sequence, flush=partial(self._flush_shard, index)
                    )
                    self._outstanding[index][sequence] = handle
                    outcomes[position] = handle

            self._call(index, command, register=register)
        return outcomes

    def submit(
        self,
        user_id: Hashable,
        frame: PointCloudFrame,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Synchronous prediction through the user's shard process."""
        return self.enqueue(
            user_id, frame, priority=priority, deadline_ms=deadline_ms
        ).result(flush=True)

    def flush(self) -> int:
        """Flush every shard's pending micro-batch now."""
        return sum(self._flush_shard(index) for index in range(self.num_shards))

    # ------------------------------------------------------------------
    # Per-user adaptation
    # ------------------------------------------------------------------
    def adapt_user(
        self,
        user_id: Hashable,
        dataset: Union[PoseDataset, ArrayDataset],
        epochs: Optional[int] = None,
    ) -> None:
        """Fine-tune one user's personal parameters on their shard process."""
        self.adapt_users({user_id: dataset}, epochs=epochs)

    def adapt_users(
        self,
        datasets: Mapping[Hashable, Union[PoseDataset, ArrayDataset]],
        epochs: Optional[int] = None,
    ) -> None:
        """Adapt many users, grouped per shard (one grouped call per shard)."""
        by_shard: Dict[int, Dict[Hashable, Union[PoseDataset, ArrayDataset]]] = {}
        for user_id, dataset in datasets.items():
            by_shard.setdefault(self.shard_index(user_id), {})[user_id] = dataset
        for index, group in sorted(by_shard.items()):
            self._call(index, AdaptUsers(datasets=group, epochs=epochs))

    def forget_user(self, user_id: Hashable) -> None:
        """Drop a user's session history and adapted parameters."""
        self._call(self.shard_index(user_id), ForgetUser(user_id=user_id))

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def export_user(self, user_id: Hashable, forget: bool = False) -> Optional[Dict]:
        """Snapshot one user's state from their shard process.

        The state dict is plain arrays/scalars, so it crosses the worker
        pickle boundary unchanged (see :mod:`repro.serve.migration`).
        """
        index = self.shard_index(user_id)
        return self._call(index, ExportUser(user_id=user_id, forget=forget)).state

    def import_user(self, state: Mapping) -> Hashable:
        """Install an exported user state onto the user's shard process."""
        if not isinstance(state, Mapping) or "user" not in state:
            raise ValueError("user state requires a 'user' id")
        user_id = state["user"]
        self._call(self.shard_index(user_id), ImportUser(state=dict(state)))
        return user_id

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _shard_reports(self):
        """Fresh ``(metrics, reply)`` per shard, rebuilt from worker state.

        A degraded shard (dead, budget exhausted) contributes an empty
        metrics instance instead of failing the whole report — degraded
        service must stay observable, that is the point of the gauge.
        """
        reports = []
        for index in range(self.num_shards):
            if self.workers[index].degraded:
                reports.append((ServeMetrics(), None))
                continue
            reply = self._call(index, MetricsRequest())
            reports.append((ServeMetrics.from_state(reply.state), reply))
        return reports

    def _sync_supervisor_metrics(self) -> ServeMetrics:
        """Refresh the parent-side restart/degraded figures from the workers."""
        self.supervisor_metrics.restarts = self.restarts
        self.supervisor_metrics.set_shards_degraded(len(self.degraded_shards))
        return self.supervisor_metrics

    def metrics_snapshot(self) -> Dict[str, float]:
        """One aggregated snapshot across shard processes, plus gauges."""
        reports = self._shard_reports()
        supervisor = self._sync_supervisor_metrics()
        report = ServeMetrics.aggregate(
            [metrics for metrics, _ in reports] + [supervisor]
        )
        report["queue_depth"] = sum(
            reply.pending for _, reply in reports if reply is not None
        )
        report["shards"] = self.num_shards
        report["sessions"] = sum(
            reply.sessions for _, reply in reports if reply is not None
        )
        report["adapted_parameter_sets"] = sum(
            reply.adapted_parameter_sets for _, reply in reports if reply is not None
        )
        report["shard_restarts"] = self.restarts
        return report

    def to_prometheus(self) -> str:
        """One valid text exposition with every shard labelled ``shard="i"``.

        The parent's restart/degraded counters ride along under
        ``shard="supervisor"`` — they are facts about the fleet the workers
        themselves cannot report.
        """
        reports = self._shard_reports()
        supervisor = self._sync_supervisor_metrics()
        instances = [
            ({"shard": str(index)}, metrics, reply.pending if reply is not None else None)
            for index, (metrics, reply) in enumerate(reports)
        ]
        instances.append(({"shard": "supervisor"}, supervisor, None))
        return prometheus_exposition(instances)

    @property
    def restarts(self) -> int:
        """Total shard-worker restarts since construction."""
        return sum(worker.restarts for worker in self.workers)

    @property
    def degraded_shards(self) -> List[int]:
        """Indices of shards that are down with their restart budget spent."""
        return [worker.index for worker in self.workers if worker.degraded]

    @property
    def degraded(self) -> bool:
        """Is any shard out of service (dead, restart budget exhausted)?

        Surfaced through the front-end's ``ping`` reply so a router's
        health probe can mark the whole backend down and drain its users
        to replicas — a partially dead backend serves some users and hangs
        others, which is worse than a cleanly dead one.
        """
        return any(worker.degraded for worker in self.workers)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Gracefully stop every shard worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for index, worker in enumerate(self.workers):
            final = worker.stop(timeout=timeout)
            if final is not None:
                self._apply_events(index, final.events)
            for handle in self._outstanding[index].values():
                handle._drop("server shutdown")
            self._outstanding[index].clear()

    def __enter__(self) -> "ProcessShardedPoseServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # best effort: don't leak worker processes
        if "_closed" not in self.__dict__:
            return  # __init__ raised before there was anything to close
        try:
            self.close(timeout=0.5)
        except Exception as error:
            entry = {"event": "shard_close_failed", "reason": f"{type(error).__name__}: {error}"}
            _log.warning(json.dumps(entry))
