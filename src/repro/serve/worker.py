"""Process-per-shard execution: one :class:`PoseServer` per worker process.

:class:`repro.serve.ProcessShardedPoseServer` places users on shards; this
module runs each shard in its own worker process, talking to the parent
over a picklable request/reply transport:

* **Commands** are three small frozen dataclasses.
  :class:`ShardCall` runs one :class:`PoseServer` function (``flush``,
  ``adapt_users``, ``forget_user``, ``export_user``, ``import_user``) or
  :func:`shard_metrics` on the shard's server.  :class:`EnqueueBatch` is
  the one enqueue command: it carries N >= 1 frames, each with its own
  traffic class and deadline, in one queue round-trip — the command behind
  ``ProcessShardedPoseServer.enqueue`` / ``enqueue_many`` and so behind
  each group-commit round of the socket front-end.  It stays a command of
  its own because the worker loop checks the fault plan before each frame
  and keeps each admitted frame's handle.  :class:`Shutdown` stops the
  worker.  Frames travel as :class:`PointCloudFrame` values, never as live
  server objects.
* **Replies**: a :class:`ShardReply` carries the command's value plus a
  :class:`ShardEvents` ledger — every prediction the shard resolved and
  every request it dropped since the last reply — so the parent's pending
  handles resolve without polling, from whichever call flushed them.  A
  frame the shard refuses (a deadline shed, a full queue, an unknown
  traffic class) comes back in :class:`EnqueueBatch`'s value as a
  per-frame outcome carrying the exception's class, detail and retry
  hint, so the parent re-raises the same rejection an in-process
  :class:`PoseServer` would.  A command that raises, or whose value does
  not pickle, comes back as a :class:`WorkerError` with the remote
  traceback.  Commands and replies are pickled before they are queued, so
  a command that cannot cross raises in the caller.
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
import pickle
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.pipeline import FusePoseEstimator
from ..runtime import pool_context, seed_for_key
from .batcher import PendingPrediction
from .config import ServeConfig
from .faults import FaultInjector, RetryPolicy, maybe_injector
from .policy import AdapterPolicy
from .server import PoseServer

__all__ = [
    "EnqueueBatch",
    "ShardCall",
    "ShardCrashed",
    "ShardDegraded",
    "ShardEvents",
    "ShardFactory",
    "ShardProcess",
    "ShardRemoteError",
    "ShardReply",
    "Shutdown",
    "WorkerError",
    "shard_metrics",
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
class ShardCall:
    """Run ``fn(server, *args)`` on the shard's :class:`PoseServer`.

    The reply's value is what ``fn`` returns.  ``fn`` is a
    :class:`PoseServer` function (``PoseServer.flush``) or a module-level
    one (:func:`shard_metrics`), never a lambda or a bound method: it
    crosses the process boundary pickled by reference.  Its value must be
    plain picklable data.  Both sides pickle before they put, so a command
    that cannot cross raises its pickling error in the caller, and a value
    that cannot comes back as a :class:`WorkerError`; neither is left to
    multiprocessing's feeder thread, which would drop it and leave the
    caller waiting.
    """

    fn: Callable
    args: tuple = ()


@dataclass(frozen=True)
class EnqueueBatch:
    """Enqueue N frames in one command round-trip (one IPC hop for N).

    Each item is ``(user_id, frame)``, optionally followed by the frame's
    ``priority`` and ``deadline_ms``, as :meth:`PoseServer.enqueue_many`
    takes them.  Frames are enqueued strictly in order, so per-user frame
    order — what streaming fusion depends on — is exactly what the caller
    sent.  The reply's value holds one outcome per frame: its shard-local
    sequence id, or ``(type name, detail, retry_after_ms)`` when its
    enqueue failed — enough for the parent to re-raise the same rejection.
    Per-frame outcomes keep a mid-batch admission failure from orphaning
    the already-admitted prefix.
    """

    items: Tuple[tuple, ...]


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
class ShardReply:
    """A command's value plus the shard's event ledger since the last reply."""

    value: Any
    events: ShardEvents


@dataclass
class WorkerError:
    """A command failed inside the worker (the shard itself is still up)."""

    message: str
    remote_traceback: str


def shard_metrics(server: PoseServer) -> Dict[str, Any]:
    """The shard's metrics state and occupancy gauges, as plain data.

    ``state`` is a :meth:`repro.serve.ServeMetrics.state_dict` payload; the
    parent rebuilds a :class:`ServeMetrics` from it and aggregates across
    shards.
    """
    return {
        "state": server.metrics.state_dict(),
        "pending": server.pending,
        "sessions": len(server.sessions),
        "adapted_parameter_sets": len(server.registry),
    }


# ----------------------------------------------------------------------
# Worker body (runs in the child process)
# ----------------------------------------------------------------------
def _reply(value: Any, outstanding: Dict[int, PendingPrediction]) -> bytes:
    """The pickled :class:`ShardReply`: ``value`` plus every handle that
    resolved or dropped since the last reply.

    A handle leaves ``outstanding`` only once the reply has pickled, so a
    value that cannot cross the boundary loses no event: the next reply
    carries it.
    """
    events = ShardEvents()
    for sequence in sorted(outstanding):
        handle = outstanding[sequence]
        if handle.done:
            events.resolved.append((sequence, handle.result(flush=False)))
        elif handle.dropped:
            events.dropped.append((sequence, handle.drop_reason))
    payload = pickle.dumps(ShardReply(value, events))
    for sequence, _ in events.resolved + events.dropped:
        del outstanding[sequence]
    return payload


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
        payload = requests.get()
        try:
            command = pickle.loads(payload)
            if isinstance(command, Shutdown):
                replies.put(_reply(server.flush(), outstanding))
                return
            value = _dispatch(server, outstanding, command, injector, shard_name)
            replies.put(_reply(value, outstanding))
        except Exception as error:  # report, keep serving: shard state is intact
            failure = WorkerError(message=str(error), remote_traceback=traceback.format_exc())
            replies.put(pickle.dumps(failure))


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
    injector: Optional[FaultInjector],
    shard_name: str,
):
    """Run one command; returns the reply's value."""
    if isinstance(command, ShardCall):
        return command.fn(server, *command.args)
    if isinstance(command, EnqueueBatch):
        outcomes: List[Union[int, Tuple[str, str, Optional[float]]]] = []
        for user_id, frame, *scheduling in command.items:
            # Checked per frame, so a mid-batch schedule kills the worker
            # with the batch prefix already admitted — the hardest case for
            # the parent's handle-resolution invariant.
            _maybe_crash(injector, shard_name)
            try:
                handle = server.enqueue(user_id, frame, *scheduling)
            except Exception as error:  # per-frame: the prefix stays valid
                outcomes.append(
                    (type(error).__name__, str(error), getattr(error, "retry_after_ms", None))
                )
                continue
            outstanding[handle.sequence] = handle
            outcomes.append(handle.sequence)
        return outcomes
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
        self._context = pool_context()
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

    def stop(self, timeout: float = 5.0) -> Optional[ShardReply]:
        """Gracefully drain and stop the worker; returns its final reply.

        A :class:`Shutdown` that fails (the worker crashed, raised or did
        not answer within ``timeout``) returns ``None`` and logs one JSON
        warning on the ``repro.serve.worker`` logger (``event:
        "shard_stop_failed"``, ``shard``, ``reason``); the process is torn
        down either way.
        """
        with self._lock:
            final: Optional[ShardReply] = None
            if self.alive:
                try:
                    final = self._roundtrip(Shutdown(), timeout=timeout)
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
    def call(self, command) -> ShardReply:
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
            return self._roundtrip(command)

    def _roundtrip(self, command, timeout: Optional[float] = None) -> ShardReply:
        name = getattr(command, "fn", type(command)).__qualname__
        # Pickled here, not in the queue's feeder thread: a command that
        # cannot cross raises to the caller instead of never arriving.
        self._requests.put(pickle.dumps(command))
        waited = 0.0
        while True:
            try:
                reply = pickle.loads(self._replies.get(timeout=_REPLY_POLL_S))
            except queue.Empty:
                waited += _REPLY_POLL_S
                if not self.alive:
                    raise ShardCrashed(
                        f"shard {self.index} worker died while handling {name}"
                    ) from None
                if timeout is not None and waited >= timeout:
                    raise ShardCrashed(
                        f"shard {self.index} did not reply to {name} within {timeout:.1f}s"
                    ) from None
                continue
            if isinstance(reply, WorkerError):
                raise ShardRemoteError(
                    f"shard {self.index} failed on {name}: "
                    f"{reply.message}\n--- remote traceback ---\n{reply.remote_traceback}"
                )
            return reply
