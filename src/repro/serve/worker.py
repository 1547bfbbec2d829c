"""Process-per-shard execution: one :class:`PoseServer` per worker process.

:class:`repro.serve.ProcessShardedPoseServer` places users on shards; this
module runs each shard in its own worker process, talking to the parent
over a picklable request/reply transport:

* **Commands** (:class:`EnqueueBatch`, :class:`Flush`, :class:`AdaptUsers`,
  :class:`ForgetUser`, :class:`MetricsRequest`, :class:`Shutdown`) are
  small frozen dataclasses; frames travel as raw
  ``(N, 5)`` point arrays, never as live server objects.
  :class:`EnqueueBatch` is the one enqueue command: it carries N >= 1
  frames, each with its own traffic class and deadline, in one queue
  round-trip — the command behind ``ProcessShardedPoseServer.enqueue`` /
  ``enqueue_many`` and so behind each group-commit round of the socket
  front-end.  A frame the shard refuses (a deadline shed, a full queue, an
  unknown traffic class) comes back as a per-frame outcome carrying the
  exception's class, detail and retry hint, so the parent re-raises the
  same rejection an in-process :class:`PoseServer` would.
* **Replies** carry an :class:`ShardEvents` ledger — every prediction the
  shard resolved and every request it dropped since the last reply — so the
  parent's pending handles resolve without polling.
* :class:`ShardProcess` keeps **one command in flight** per shard, under
  its lock: a caller puts a command and waits for its reply, so the
  request queue never holds more than one command and a stalled worker
  blocks its caller instead of buffering.
* **Lifecycle** — :meth:`ShardProcess.stop` drains the shard gracefully
  (flush, resolve, exit); a crashed worker is detected mid-call
  (:class:`ShardCrashed`) and :meth:`ShardProcess.restart` brings up a
  fresh process with the same factory.  A graceful stop that fails (the
  worker crashed or timed out on :class:`Shutdown`) still tears the
  process down and logs one JSON ``shard_stop_failed`` warning on the
  ``repro.serve.worker`` logger.  Per-shard determinism is preserved by
  seeding each worker from :func:`repro.runtime.seed_for_key`, the same
  derivation the sharded dataset generator uses.

The worker body builds its :class:`PoseServer` from a :class:`ShardFactory`
*inside* the child, so under ``fork`` the (potentially large) estimator is
shared copy-on-write and under ``spawn`` it crosses the pickle boundary
exactly once, at start-up.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.pipeline import FusePoseEstimator
from ..dataset.loader import ArrayDataset
from ..dataset.sample import PoseDataset
from ..radar.pointcloud import PointCloudFrame
from ..runtime import pool_context, seed_for_key
from .batcher import PendingPrediction
from .config import ServeConfig
from .faults import FaultInjector, RetryPolicy, maybe_injector
from .policy import AdapterPolicy
from .server import PoseServer

__all__ = [
    "AdaptUsers",
    "EnqueueBatch",
    "EnqueuedBatch",
    "Done",
    "ExportUser",
    "Flush",
    "Flushed",
    "ForgetUser",
    "ImportUser",
    "MetricsReply",
    "MetricsRequest",
    "ShardCrashed",
    "ShardDegraded",
    "ShardEvents",
    "ShardFactory",
    "ShardProcess",
    "ShardRemoteError",
    "Shutdown",
    "Stopped",
    "UserStateReply",
    "WorkerError",
    "shard_worker_main",
]

#: seconds between liveness checks while a caller waits for a reply
_REPLY_POLL_S = 0.1

#: default restart budget of one shard worker ("generous": a worker that
#: crashes this many times is systematically broken, not unlucky).
DEFAULT_MAX_RESTARTS = 8

#: default capped backoff between consecutive restarts of one shard.
DEFAULT_RESTART_BACKOFF = RetryPolicy(
    max_attempts=DEFAULT_MAX_RESTARTS + 1, base_delay_s=0.05, max_delay_s=2.0
)

_log = logging.getLogger(__name__)


class ShardCrashed(RuntimeError):
    """The worker process died while a command was in flight."""


class ShardDegraded(ShardCrashed):
    """The worker is dead and its restart budget is exhausted.

    A subclass of :class:`ShardCrashed` so existing crash handling still
    fires; supervisors additionally use it to stop restarting and report
    the shard degraded instead.
    """


class ShardRemoteError(RuntimeError):
    """A command raised inside the worker; carries the remote traceback."""


# ----------------------------------------------------------------------
# Picklable command / reply types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardFactory:
    """Everything a worker needs to build its :class:`PoseServer` shard.

    ``policy`` is the adapter policy every shard serves under (``None``
    falls back to ``config.adapter``, as :class:`PoseServer` does).
    """

    estimator: FusePoseEstimator
    config: ServeConfig
    policy: Optional[AdapterPolicy] = None

    def build(self, shard_index: Optional[int] = None) -> PoseServer:
        policy = self.policy
        if policy is not None and shard_index is not None:
            # Every shard spills under its own subdirectory — two shards
            # never share a user (stable hash placement), so this keeps a
            # restarted worker re-attaching exactly its own cohort.
            policy = policy.with_spill_subdir(f"shard{shard_index:03d}")
        return PoseServer(self.estimator, self.config, policy=policy)


@dataclass(frozen=True)
class EnqueueBatch:
    """Enqueue N frames in one command round-trip (one IPC hop for N).

    Frames are enqueued strictly in tuple order, so per-user frame order —
    what streaming fusion depends on — is exactly what the caller sent.
    ``priorities[i]`` names frame i's traffic class (``None`` = the
    config's default class) and ``deadlines_ms[i]`` overrides that class's
    latency budget for the one frame.  The reply carries one shard-local
    sequence id per admitted frame.
    """

    user_ids: Tuple[Hashable, ...]
    points: Tuple[np.ndarray, ...]
    timestamps: Tuple[float, ...]
    frame_indices: Tuple[int, ...]
    priorities: Tuple[Optional[str], ...]
    deadlines_ms: Tuple[Optional[float], ...]

    def frames(self) -> List[PointCloudFrame]:
        return [
            PointCloudFrame(points, timestamp=timestamp, frame_index=frame_index)
            for points, timestamp, frame_index in zip(
                self.points, self.timestamps, self.frame_indices
            )
        ]


@dataclass(frozen=True)
class Flush:
    """Force the shard's pending micro-batch out now."""


@dataclass(frozen=True)
class AdaptUsers:
    """Fine-tune personal parameters for a cohort living on this shard."""

    datasets: Mapping[Hashable, Union[PoseDataset, ArrayDataset]]
    epochs: Optional[int] = None


@dataclass(frozen=True)
class ForgetUser:
    """Drop one user's session history and adapted parameters."""

    user_id: Hashable


@dataclass(frozen=True)
class ExportUser:
    """Snapshot one user's session + adapter state (live migration source)."""

    user_id: Hashable
    forget: bool = False


@dataclass(frozen=True)
class ImportUser:
    """Install an exported user state on this shard (migration destination)."""

    state: dict


@dataclass(frozen=True)
class MetricsRequest:
    """Ask for the shard's metrics state and occupancy gauges."""


@dataclass(frozen=True)
class Shutdown:
    """Graceful stop: flush, resolve outstanding handles, exit."""


@dataclass
class ShardEvents:
    """Predictions resolved and requests dropped since the last reply.

    Dropped entries are ``(sequence, reason)`` pairs: the reason the
    shard's batcher recorded (eviction, shutdown) travels with the event so
    the parent's handle — and ultimately the wire error frame its waiter
    receives — can say *why* the request died instead of hanging silently.
    """

    resolved: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    dropped: List[Tuple[int, Optional[str]]] = field(default_factory=list)


@dataclass
class EnqueuedBatch:
    """Reply to :class:`EnqueueBatch`: one outcome per frame, in order.

    ``sequences[i]`` is the frame's shard-local sequence id, or ``None``
    when its enqueue failed — then ``errors[i]`` carries ``(type name,
    detail, retry_after_ms)``, enough for the parent to re-raise the same
    rejection (``FrameDropped`` for a deadline shed, ``QueueFull`` with
    its hint under ``reject``, ``ValueError`` for an unknown traffic
    class).  Per-frame outcomes keep a mid-batch admission failure from
    orphaning the already-admitted prefix: those frames stay valid,
    resolvable requests instead of being silently discarded with mutated
    fusion rings behind them.
    """

    sequences: List[Optional[int]]
    errors: List[Optional[Tuple[str, str, Optional[float]]]]
    events: ShardEvents


@dataclass
class Flushed:
    """Reply to :class:`Flush`."""

    produced: int
    events: ShardEvents


@dataclass
class Done:
    """Reply to side-effect commands (adaptation, forget)."""

    events: ShardEvents


@dataclass
class UserStateReply:
    """Reply to :class:`ExportUser`: the user-state dict, or ``None``.

    The state is plain arrays and scalars (see
    :mod:`repro.serve.migration`), so it crosses the pickle boundary here
    and the wire unchanged.
    """

    state: Optional[dict]
    events: ShardEvents


@dataclass
class MetricsReply:
    """Reply to :class:`MetricsRequest`.

    ``state`` is a :meth:`repro.serve.ServeMetrics.state_dict` payload; the
    parent rebuilds a :class:`ServeMetrics` from it and aggregates across
    shards exactly as the in-process sharded server does.
    """

    state: dict
    pending: int
    sessions: int
    adapted_parameter_sets: int
    events: ShardEvents


@dataclass
class Stopped:
    """Final reply of a graceful shutdown."""

    events: ShardEvents


@dataclass
class WorkerError:
    """A command failed inside the worker (the shard itself is still up)."""

    message: str
    remote_traceback: str


# ----------------------------------------------------------------------
# Worker body (runs in the child process)
# ----------------------------------------------------------------------
def _collect_events(outstanding: Dict[int, PendingPrediction]) -> ShardEvents:
    """Harvest every handle that resolved or dropped since the last reply."""
    events = ShardEvents()
    for sequence in sorted(outstanding):
        handle = outstanding[sequence]
        if handle.done:
            events.resolved.append((sequence, handle.result(flush=False)))
        elif handle.dropped:
            events.dropped.append((sequence, handle.drop_reason))
        else:
            continue
        del outstanding[sequence]
    return events


def shard_worker_main(
    factory: ShardFactory,
    requests: "multiprocessing.queues.Queue",
    replies: "multiprocessing.queues.Queue",
    shard_index: int,
    seed: Optional[int] = None,
) -> None:
    """The worker loop: build one shard, serve commands until shutdown.

    Runs as the target of a :class:`ShardProcess`; module-level so it
    crosses the pickle boundary under every start method.
    """
    if seed is None:
        seed = seed_for_key("serve-shard", shard_index)
    np.random.seed(seed & 0xFFFFFFFF)
    server = factory.build(shard_index)
    # The fault plan rides the same pickle boundary as every other config
    # field; each worker counts its own enqueued frames, so "crash shard k
    # at frame N" replays identically regardless of parent-side timing.
    injector = maybe_injector(getattr(factory.config, "fault_plan", None))
    shard_name = f"shard{shard_index}"
    outstanding: Dict[int, PendingPrediction] = {}
    while True:
        command = requests.get()
        try:
            if isinstance(command, Shutdown):
                server.flush()
                replies.put(Stopped(events=_collect_events(outstanding)))
                return
            replies.put(
                _dispatch(server, outstanding, command, injector=injector, shard_name=shard_name)
            )
        except Exception as error:  # report, keep serving: shard state is intact
            replies.put(WorkerError(message=str(error), remote_traceback=traceback.format_exc()))


def _maybe_crash(injector: Optional[FaultInjector], shard_name: str) -> None:
    """Fire a scheduled ``worker_crash``: hard process death, no cleanup.

    ``os._exit`` (not ``sys.exit``) models a real crash — no finally blocks,
    no queue flushing, no atexit — which is exactly the failure the parent's
    :class:`ShardCrashed` detection and spill re-attach must survive.
    """
    if injector is not None and injector.check("worker_crash", shard_name) is not None:
        os._exit(1)


def _dispatch(
    server: PoseServer,
    outstanding: Dict[int, PendingPrediction],
    command,
    injector: Optional[FaultInjector] = None,
    shard_name: str = "",
):
    if isinstance(command, EnqueueBatch):
        sequences: List[Optional[int]] = []
        errors: List[Optional[Tuple[str, str, Optional[float]]]] = []
        for user_id, frame, priority, deadline_ms in zip(
            command.user_ids, command.frames(), command.priorities, command.deadlines_ms
        ):
            # Checked per frame, so a mid-batch schedule kills the worker
            # with the batch prefix already admitted — the hardest case for
            # the parent's handle-resolution invariant.
            _maybe_crash(injector, shard_name)
            try:
                handle = server.enqueue(
                    user_id, frame, priority=priority, deadline_ms=deadline_ms
                )
            except Exception as error:  # per-frame: the prefix stays valid
                sequences.append(None)
                errors.append(
                    (type(error).__name__, str(error), getattr(error, "retry_after_ms", None))
                )
                continue
            outstanding[handle.sequence] = handle
            sequences.append(handle.sequence)
            errors.append(None)
        return EnqueuedBatch(
            sequences=sequences, errors=errors, events=_collect_events(outstanding)
        )
    if isinstance(command, Flush):
        return Flushed(produced=server.flush(), events=_collect_events(outstanding))
    if isinstance(command, AdaptUsers):
        server.adapt_users(command.datasets, epochs=command.epochs)
        return Done(events=_collect_events(outstanding))
    if isinstance(command, ForgetUser):
        server.forget_user(command.user_id)
        return Done(events=_collect_events(outstanding))
    if isinstance(command, ExportUser):
        state = server.export_user(command.user_id, forget=command.forget)
        # The export's flush may have resolved outstanding handles; the
        # ledger rides along so the parent settles them as usual.
        return UserStateReply(state=state, events=_collect_events(outstanding))
    if isinstance(command, ImportUser):
        server.import_user(command.state)
        return Done(events=_collect_events(outstanding))
    if isinstance(command, MetricsRequest):
        return MetricsReply(
            state=server.metrics.state_dict(),
            pending=server.pending,
            sessions=len(server.sessions),
            adapted_parameter_sets=len(server.registry),
            events=_collect_events(outstanding),
        )
    raise TypeError(f"unknown shard command {type(command).__name__}")


# ----------------------------------------------------------------------
# Parent-side handle
# ----------------------------------------------------------------------
class ShardProcess:
    """Parent-side handle of one shard worker process.

    The handle enforces a strict one-in-flight request/reply discipline
    under an internal lock, which makes it safe to call from the executor
    threads of the asyncio front-end, keeps the request queue from ever
    deepening past one command, and guarantees replies are matched to the
    commands that produced them.
    """

    def __init__(
        self,
        factory: ShardFactory,
        index: int,
        start_method: Optional[str] = None,
        max_restarts: Optional[int] = DEFAULT_MAX_RESTARTS,
        restart_backoff: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_restarts is not None and max_restarts < 0:
            raise ValueError("max_restarts must be non-negative (or None for unlimited)")
        self.factory = factory
        self.index = index
        self.restarts = 0
        self.max_restarts = max_restarts
        self.restart_backoff = (
            restart_backoff if restart_backoff is not None else DEFAULT_RESTART_BACKOFF
        )
        self._sleep = sleep
        self._context = pool_context(start_method)
        self._lock = threading.Lock()
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._requests = None
        self._replies = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def restart_budget_exhausted(self) -> bool:
        """Has this shard spent its whole restart budget?"""
        return self.max_restarts is not None and self.restarts >= self.max_restarts

    @property
    def degraded(self) -> bool:
        """Dead with no restart budget left: the shard is out of service.

        A degraded shard stops being restarted; its supervisor reports it
        through the ``shards_degraded`` gauge so a router can mark the
        backend down and drain its users to replicas.
        """
        return self.restart_budget_exhausted and not self.alive

    def start(self) -> None:
        if self.alive:
            raise RuntimeError(f"shard {self.index} is already running")
        self._requests = self._context.Queue()
        self._replies = self._context.Queue()
        self._process = self._context.Process(
            target=shard_worker_main,
            args=(self.factory, self._requests, self._replies, self.index),
            name=f"fuse-serve-shard-{self.index}",
            daemon=True,
        )
        self._process.start()

    def restart(self) -> None:
        """Replace a dead worker with a fresh one (session state is lost).

        Restarts are paced by the shard's capped-backoff
        :class:`RetryPolicy` (a crash-looping worker must not spin the
        host) and bounded by ``max_restarts``: past the budget the shard is
        *degraded* and this raises :class:`ShardDegraded` instead of
        starting another doomed process.
        """
        if self.restart_budget_exhausted:
            raise ShardDegraded(
                f"shard {self.index} exhausted its restart budget "
                f"({self.restarts}/{self.max_restarts}); not restarting"
            )
        self._teardown(graceful=False)
        delay = self.restart_backoff.delay(self.restarts, salt=f"shard{self.index}")
        if delay > 0:
            self._sleep(delay)
        self.restarts += 1
        self.start()

    def stop(self, timeout: float = 5.0) -> Optional[Stopped]:
        """Gracefully drain and stop the worker; returns its final events.

        A :class:`Shutdown` that fails (the worker crashed, raised or did
        not answer within ``timeout``) returns ``None`` and logs one JSON
        warning on the ``repro.serve.worker`` logger (``event:
        "shard_stop_failed"``, ``shard``, ``reason``); the process is torn
        down either way.
        """
        with self._lock:
            final: Optional[Stopped] = None
            if self.alive:
                try:
                    reply = self._roundtrip(Shutdown(), timeout=timeout)
                    if isinstance(reply, Stopped):
                        final = reply
                except (ShardCrashed, ShardRemoteError) as error:
                    entry = {
                        "event": "shard_stop_failed",
                        "shard": self.index,
                        "reason": f"{type(error).__name__}: {error}",
                    }
                    _log.warning(json.dumps(entry))
            self._teardown(graceful=True, timeout=timeout)
            return final

    def _teardown(self, graceful: bool, timeout: float = 5.0) -> None:
        if self._process is not None:
            self._process.join(timeout if graceful else 0.1)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout)
            self._process = None
        for channel in (self._requests, self._replies):
            if channel is not None:
                channel.close()
                channel.join_thread()
        self._requests = self._replies = None

    # ------------------------------------------------------------------
    # Command round-trips
    # ------------------------------------------------------------------
    def call(self, command, timeout: Optional[float] = None):
        """Send one command and wait for its reply.

        Raises :class:`ShardCrashed` when the worker dies mid-call (the
        caller decides whether to :meth:`restart`) and
        :class:`ShardRemoteError` when the command failed remotely but the
        worker is still healthy.
        """
        with self._lock:
            if not self.alive:
                if self.degraded:
                    raise ShardDegraded(
                        f"shard {self.index} is degraded (restart budget "
                        f"{self.restarts}/{self.max_restarts} exhausted)"
                    )
                raise ShardCrashed(f"shard {self.index} worker is not running")
            return self._roundtrip(command, timeout=timeout)

    def _roundtrip(self, command, timeout: Optional[float] = None):
        self._requests.put(command)
        waited = 0.0
        while True:
            try:
                reply = self._replies.get(timeout=_REPLY_POLL_S)
            except queue.Empty:
                waited += _REPLY_POLL_S
                if not self.alive:
                    raise ShardCrashed(
                        f"shard {self.index} worker died while handling "
                        f"{type(command).__name__}"
                    ) from None
                if timeout is not None and waited >= timeout:
                    raise ShardCrashed(
                        f"shard {self.index} did not reply to "
                        f"{type(command).__name__} within {timeout:.1f}s"
                    ) from None
                continue
            if isinstance(reply, WorkerError):
                raise ShardRemoteError(
                    f"shard {self.index} failed on {type(command).__name__}: "
                    f"{reply.message}\n--- remote traceback ---\n{reply.remote_traceback}"
                )
            return reply
