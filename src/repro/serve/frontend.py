"""Asyncio socket front-end: network ingress for the serving subsystem.

:class:`PoseFrontend` decouples request ingress from shard compute.  It
accepts length-prefixed JSON frames (:mod:`repro.serve.transport`) over
TCP or a Unix socket, routes each request to the backend server —
typically a :class:`repro.serve.ProcessShardedPoseServer`, whose
:func:`repro.runtime.shard_for` placement sends the user to its shard
process — and streams results back on the same connection.

Concurrency model (protocol v2):

* the asyncio event loop owns every socket: reads, frame parsing and writes
  never block on model compute;
* a connection is **pipelined**: every request carries an ``id`` and is
  dispatched as its own task (bounded by ``max_in_flight`` per connection)
  and replies carry the request's ``id`` so they may return out of order —
  one client can keep several shards busy through one socket;
* requests are **group-committed** per shard: a ``submit`` (or an
  ``export_user`` / ``import_user``) joins its shard's arrival-ordered
  queue synchronously at dispatch, and one drain task per shard sends
  every frame queued since its last round to the backend in one
  ``enqueue_many`` call, then answers each waiter with its own slot.
  Whatever arrives during one round forms the next micro-batch, so remote
  traffic fills the cross-user micro-batcher while a lone frame still
  flushes at once; per-shard arrival order — what streaming fusion
  depends on — is the order the backend sees.

A request without an int or str ``id`` is answered with an uncorrelated
``error`` frame (``ProtocolError``) and the connection keeps reading.

Backpressure surfaces exactly like in-process serving: a full shard queue
drops or rejects per :class:`repro.serve.ServeConfig`, and the client sees
a ``prediction`` or an ``error`` frame per request.  Framing violations
(truncated or oversized frames, unknown codecs or message types) close the
connection after a best-effort ``error`` frame — the stream cannot be
resynchronized.

:class:`AsyncPoseClient` is the matching client used by the examples, the
tests and the benchmark harness.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import stat
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..radar.pointcloud import PointCloudFrame
from .batcher import FrameDropped, QueueFull
from .clock import MonotonicClock, as_clock
from .faults import FaultInjector, RetryPolicy, maybe_injector
from .metrics import ServeMetrics, merge_expositions
from .scheduling import RateLimited, SchedulingPolicy, TokenBucket
from . import transport
from .transport import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WireError,
    available_codecs,
    encode_message,
    read_message,
    write_message,
)

__all__ = [
    "AsyncPoseClient",
    "PoseFrontend",
    "ServerClosing",
    "ServerError",
    "SocketServerBase",
]

#: default bound on concurrently dispatched requests per connection
DEFAULT_MAX_IN_FLIGHT = 32


class ServerClosing(RuntimeError):
    """The front-end refused a request because it is shutting down."""


class _TruncatedByFault(Exception):
    """Internal write-loop signal: an injected truncation closed the writer."""


class _Connection:
    """Per-connection pipelining state, owned by the event loop."""

    __slots__ = ("writer", "outbox", "window", "inflight", "tasks")

    def __init__(self, writer, max_in_flight: int) -> None:
        self.writer = writer
        #: replies serialized onto the socket by the write loop, as
        #: ``(message, on_written)`` pairs (``None`` is the shutdown
        #: sentinel); ``on_written`` releases the dispatch window slot
        self.outbox: "asyncio.Queue[Optional[tuple]]" = asyncio.Queue()
        #: bounds requests between read and *written reply*: acquired in
        #: the read loop (a saturated window stops reading) and released
        #: by the write loop after the reply hits the socket, so a client
        #: that never reads cannot grow the reply queue without limit —
        #: its socket buffer fills, writes stall, the window stays full
        #: and reads stop.
        self.window = asyncio.Semaphore(max_in_flight)
        #: ids currently being served (duplicate detection)
        self.inflight: Set = set()
        self.tasks: Set[asyncio.Task] = set()


class SocketServerBase:
    """Shared asyncio socket-serving machinery: listener plus pipelining.

    Owns everything about speaking the wire protocol to *clients*: the
    listener lifecycle, the per-connection read/write loops, the pipelined
    dispatch window and the protocol-generic message types (``hello``,
    ``ping``, ``shutdown``).

    :class:`PoseFrontend` plugs one backend server underneath;
    :class:`repro.serve.router.PoseRouter` plugs a fleet of backend
    connections instead.  Subclasses implement :meth:`_dispatch_extra`
    (their message types), optionally :meth:`_hello_extra` (their hello
    fields) and the four lifecycle hooks.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: int = 0,
        unix_path: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        allow_remote_shutdown: bool = False,
    ) -> None:
        if (host is None) == (unix_path is None):
            raise ValueError("provide exactly one of host / unix_path")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.max_frame_bytes = max_frame_bytes
        self.max_in_flight = max_in_flight
        self.allow_remote_shutdown = allow_remote_shutdown
        self._listener: Optional[asyncio.AbstractServer] = None
        self._closing = asyncio.Event()
        self._connections: Set[_Connection] = set()
        self.connections_served = 0
        self.requests_served = 0
        self.protocol_errors = 0
        #: deterministic fault injection over this server's wire surfaces
        #: (``blackhole``/``reply_latency`` at dispatch, ``corrupt_frame``/
        #: ``truncate_frame`` in the write loop); subclasses set it
        self.fault_injector: Optional[FaultInjector] = None

    # ------------------------------------------------------------------
    # Lifecycle hooks (subclasses)
    # ------------------------------------------------------------------
    async def _before_listen(self) -> None:
        """Runs before the socket binds (allocate resources)."""

    async def _after_listen(self) -> None:
        """Runs once the socket is bound (start background tasks)."""

    async def _before_unbind(self) -> None:
        """Runs at the start of :meth:`stop` (cancel background tasks)."""

    async def _after_unbind(self) -> None:
        """Runs at the end of :meth:`stop` (release resources)."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self):
        """The bound address: ``(host, port)`` for TCP, the path for Unix."""
        if self._listener is None:
            raise RuntimeError("front-end is not started")
        if self.unix_path is not None:
            return self.unix_path
        return self._listener.sockets[0].getsockname()[:2]

    async def start(self) -> "SocketServerBase":
        """Bind the socket and start accepting connections."""
        if self._listener is not None:
            raise RuntimeError("front-end is already started")
        await self._before_listen()
        if self.unix_path is not None:
            # A previous listener that exited without stop() leaves its
            # socket file behind; binding over a stale socket (never a
            # regular file) is the conventional Unix-server behaviour.
            if stat.S_ISSOCK(_path_mode(self.unix_path)):
                os.unlink(self.unix_path)
            self._listener = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
        else:
            self._listener = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self.port = self._listener.sockets[0].getsockname()[1]
        await self._after_listen()
        return self

    async def stop(self) -> None:
        """Stop accepting, close the listener and release resources.

        A backend server underneath is *not* closed: the caller owns its
        lifecycle (the CLI closes it after the front-end stops).
        """
        self._closing.set()
        await self._before_unbind()
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
            if self.unix_path is not None and stat.S_ISSOCK(_path_mode(self.unix_path)):
                with contextlib.suppress(OSError):
                    os.unlink(self.unix_path)
        # Hang up on lingering connections: their read loops observe EOF and
        # tear down cleanly instead of being cancelled mid-read when the
        # event loop exits.
        for conn in list(self._connections):
            conn.writer.close()
        await self._after_unbind()

    async def serve_until_closed(self) -> None:
        """Block until :meth:`stop` is called (or a remote shutdown)."""
        await self._closing.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        conn = _Connection(writer, self.max_in_flight)
        self._connections.add(conn)
        write_loop = asyncio.ensure_future(self._write_loop(conn))
        try:
            while True:
                try:
                    framed = await read_message(reader, self.max_frame_bytes)
                except asyncio.CancelledError:
                    break  # event-loop shutdown mid-read: clean up as on EOF
                except (ConnectionError, OSError):
                    break  # peer reset underneath us
                except WireError as error:
                    # The stream cannot be resynchronized after a framing
                    # fault: report and hang up.
                    self.protocol_errors += 1
                    conn.outbox.put_nowait((_error_message(error), None))
                    break
                if framed is None:
                    break  # clean EOF between frames
                message = framed[0]
                request_id = message.get("id")
                if not isinstance(request_id, (int, str)):
                    refusal = transport.ProtocolError(
                        "every request requires a request id (an int or str)"
                    )
                    conn.outbox.put_nowait((_error_message(refusal), None))
                    continue
                if request_id in conn.inflight:
                    duplicate = transport.ProtocolError(
                        f"request id {request_id!r} is already in flight"
                    )
                    conn.outbox.put_nowait(
                        (_error_message(duplicate, request_id=request_id), None)
                    )
                    continue
                # Acquire the window in the read loop: a full window stops
                # reads (backpressure) and guarantees dispatch tasks are
                # created — and therefore join their shard queues — in
                # arrival order.
                await conn.window.acquire()
                conn.inflight.add(request_id)
                task = asyncio.ensure_future(self._serve_pipelined(conn, message, request_id))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        finally:
            # Half-close support: finish in-flight requests and flush their
            # replies before hanging up.
            if conn.tasks:
                await asyncio.gather(*list(conn.tasks), return_exceptions=True)
            conn.outbox.put_nowait(None)
            # Suppress everything: an unexpected write-loop fault must not
            # skip the connection teardown below.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await write_loop
            self._connections.discard(conn)
            writer.close()
            # Suppress CancelledError too: stop() tears connections down
            # mid-wait and the close has already been issued above.
            with contextlib.suppress(ConnectionError, BrokenPipeError, asyncio.CancelledError):
                await writer.wait_closed()

    async def _write_loop(self, conn: _Connection) -> None:
        """Serialize every reply of one connection onto its socket."""
        while True:
            item = await conn.outbox.get()
            if item is None:
                return
            message, on_written = item
            try:
                await self._write_frame(conn, message)
            except _TruncatedByFault:
                # The injected truncation already closed the writer; free
                # the slot and drain like any other dead connection.
                if on_written is not None:
                    on_written()
                await self._drain_outbox(conn)
                return
            except WireError as error:
                # The reply itself cannot be framed (e.g. it encodes past
                # max_frame_bytes) but the socket is healthy: substitute a
                # correlated error frame so the client gets an exception
                # instead of awaiting a reply that never comes.
                self.protocol_errors += 1
                fallback = _error_message(error, request_id=message.get("id"))
                try:
                    await write_message(conn.writer, fallback, max_frame_bytes=self.max_frame_bytes)
                except (OSError, WireError):
                    conn.writer.close()  # give the read loop its EOF
                    if on_written is not None:
                        on_written()
                    await self._drain_outbox(conn)
                    return
                if on_written is not None:
                    on_written()
            except OSError:
                # Connection is gone — any socket-level fault, not just the
                # ConnectionError family (a NAT-vanished peer surfaces as
                # ETIMEDOUT): close, then drain the outbox — still
                # releasing window slots so the read loop never wedges on a
                # window that cannot refill — and let the read side
                # observe EOF and tear down.
                conn.writer.close()
                if on_written is not None:
                    on_written()
                await self._drain_outbox(conn)
                return
            else:
                if on_written is not None:
                    on_written()

    async def _write_frame(self, conn: _Connection, message: dict) -> None:
        """Write one frame, applying any injected outgoing-frame faults.

        ``corrupt_frame`` rules (matched against the outgoing message type)
        mangle payload bytes while the frame header survives, so the peer
        decodes garbage and sees a :class:`ProtocolError`; ``truncate_frame``
        rules write a prefix of the frame and close the connection, so the
        peer sees :class:`TruncatedFrame`.  Both counters advance on every
        written frame, keeping schedules aligned with the reply stream.
        """
        if self.fault_injector is not None:
            kind = message.get("type")
            corrupt = self.fault_injector.check("corrupt_frame", kind)
            truncate = self.fault_injector.check("truncate_frame", kind)
            if corrupt is not None or truncate is not None:
                data = encode_message(message, max_frame_bytes=self.max_frame_bytes)
                if corrupt is not None:
                    conn.writer.write(FaultInjector.corrupt_bytes(data))
                    await conn.writer.drain()
                    return
                conn.writer.write(FaultInjector.truncate_bytes(data))
                await conn.writer.drain()
                conn.writer.close()  # mid-frame hangup: the peer cannot resync
                raise _TruncatedByFault()
        await write_message(conn.writer, message, max_frame_bytes=self.max_frame_bytes)

    @staticmethod
    async def _drain_outbox(conn: _Connection) -> None:
        """Consume the outbox of a dead connection, freeing window slots."""
        while True:
            leftover = await conn.outbox.get()
            if leftover is None:
                return
            if leftover[1] is not None:
                leftover[1]()

    async def _serve_pipelined(self, conn: _Connection, message: dict, request_id) -> None:
        try:
            reply = await self._serve(message)
        except BaseException:
            # Cancellation (frontend teardown): free the slot so the read
            # loop never wedges on a window that cannot refill.
            conn.inflight.discard(request_id)
            conn.window.release()
            raise
        conn.inflight.discard(request_id)
        if reply is None:  # blackholed: drop the reply but free the slot
            conn.window.release()
            return
        # The slot frees when the reply is *written*, not when it is
        # queued: that ties the dispatch window to socket backpressure.
        conn.outbox.put_nowait((dict(reply, id=request_id), conn.window.release))
        self.requests_served += 1
        if reply["type"] == "goodbye":
            self._closing.set()

    async def _serve(self, message: dict) -> Optional[dict]:
        try:
            reply = await self._dispatch(message)
        except (FrameDropped, QueueFull, RateLimited, ServerClosing) as error:
            reply = _error_message(error)
        except Exception as error:  # backend fault: report, keep serving
            self.protocol_errors += 1
            reply = _error_message(error)
        if self.fault_injector is not None:
            # Both checks advance their per-(op, target) counters on every
            # served request, keyed by the *request* type, so schedules
            # align with the request stream.
            kind = message.get("type")
            latency = self.fault_injector.check("reply_latency", kind)
            if latency is not None:
                await asyncio.sleep(latency.delay_s)
            if self.fault_injector.check("blackhole", kind) is not None:
                return None  # swallow the reply: the client never hears back
        return reply

    # ------------------------------------------------------------------
    # Dispatch: protocol-generic message types
    # ------------------------------------------------------------------
    async def _dispatch(self, message: dict) -> dict:
        kind = message["type"]
        if kind == "hello":
            reply = {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "codecs": list(available_codecs()),
                "max_in_flight": self.max_in_flight,
            }
            reply.update(self._hello_extra())
            return reply
        if kind == "ping":
            return self._pong()
        if kind == "shutdown":
            if not self.allow_remote_shutdown:
                raise ServerClosing("remote shutdown is disabled on this front-end")
            return {"type": "goodbye"}
        return await self._dispatch_extra(message)

    def _hello_extra(self) -> dict:
        """Subclass-specific fields merged into the ``hello`` reply."""
        return {}

    def _pong(self) -> dict:
        """The ``ping`` reply; subclasses may attach health fields."""
        return {"type": "pong"}

    async def _dispatch_extra(self, message: dict) -> dict:
        raise transport.ProtocolError(
            f"front-end cannot serve message type {message['type']!r}"
        )


class PoseFrontend(SocketServerBase):
    """Socket front-end over any server with the :class:`PoseServer` façade.

    Parameters
    ----------
    server:
        The backend: a :class:`repro.serve.ProcessShardedPoseServer` for a
        process-per-shard deployment, or a :class:`repro.serve.PoseServer`.
        Backend calls run on an executor sized from it: ``num_shards``
        threads when the backend declares ``parallel_safe = True`` (the
        process-per-shard server does: each shard's commands serialize on
        their own lock), else one — the in-process server is
        single-threaded by design and must never see concurrent calls.
    host / port:
        TCP listening address, or
    unix_path:
        Unix-domain socket path (mutually exclusive with ``host``).
    max_frame_bytes:
        Per-frame payload bound enforced before any payload is read.
    max_in_flight:
        Bound on concurrently dispatched requests per connection
        (pipelining).  When a connection's window is full the front-end
        stops reading from it, so the socket's own buffers are the only
        queue ahead of the dispatch layer.
    protocol:
        Accepted only as ``2``, the one protocol generation spoken; any
        other value raises ``ValueError``.
    allow_remote_shutdown:
        Honour the ``shutdown`` message type (handy for examples and tests;
        leave off for real deployments).
    clock:
        Time source for admission control (token-bucket refill).  Any
        zero-argument callable returning seconds, or a
        :class:`repro.serve.Clock`; defaults to a monotonic clock.  Tests
        inject a :class:`repro.serve.FakeClock` to make rate-limit refill
        deterministic.

    **Group commit.**  A ``submit``, an ``export_user`` and an
    ``import_user`` each join their shard's arrival-ordered queue
    synchronously at dispatch.  At most one drain task per shard works
    through that queue in rounds: every frame queued since the last round
    goes to the backend in one ``enqueue_many`` call (one ``EnqueueBatch``
    IPC hop on a process shard), the handles resolve (flushing the shard)
    and each waiter gets its own slot — a prediction, or that frame's own
    rejection.  Whatever arrives during one round forms the next
    micro-batch; a lone frame flushes at once.  A user-state operation is
    a round of its own, so it sees exactly the frames that arrived before
    it.  The batch-invariant kernels keep every reply bitwise equal to
    serving the same per-shard order one frame at a time.

    Admission control follows the backend's
    :class:`repro.serve.SchedulingPolicy` (``server.config.scheduler``):
    when ``rate_limit_per_user`` is set, each user spends one token per
    frame at the front door and an exhausted bucket sheds the request
    with a correlated ``error`` frame carrying ``retry_after_ms`` —
    before the request ever joins a shard queue.
    """

    #: bound on distinct per-user token buckets held at once (LRU evicted)
    MAX_TRACKED_USERS = 4096

    def __init__(
        self,
        server,
        host: Optional[str] = None,
        port: int = 0,
        unix_path: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        protocol: int = PROTOCOL_VERSION,
        allow_remote_shutdown: bool = False,
        clock: Optional[Callable[[], float]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if protocol != PROTOCOL_VERSION:
            raise ValueError(f"protocol must be {PROTOCOL_VERSION}, got {protocol!r}")
        super().__init__(
            host=host,
            port=port,
            unix_path=unix_path,
            max_frame_bytes=max_frame_bytes,
            max_in_flight=max_in_flight,
            allow_remote_shutdown=allow_remote_shutdown,
        )
        self.server = server
        #: executor threads for backend calls (see the class docstring)
        self.parallelism = (
            int(getattr(server, "num_shards", 1) or 1)
            if getattr(server, "parallel_safe", False)
            else 1
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        #: shard index -> arrival-ordered ``(request, waiter)`` entries; a
        #: request is a frame ``(user, cloud, priority, deadline_ms)`` or a
        #: user-state operation (a zero-argument callable)
        self._queues: Dict[int, deque] = {}
        #: shard index -> the drain task working through that queue
        self._drains: Dict[int, asyncio.Task] = {}
        self.clock = as_clock(clock) if clock is not None else MonotonicClock()
        config = getattr(server, "config", None)
        scheduler = getattr(config, "scheduler", None)
        self.scheduler: SchedulingPolicy = (
            scheduler if scheduler is not None else SchedulingPolicy()
        )
        #: front-door admission counters (shed requests live here, not in
        #: the backend: a shed request never reaches a shard)
        self.admission = ServeMetrics(clock=self.clock)
        self._buckets: "OrderedDict[Hashable, TokenBucket]" = OrderedDict()
        # Explicit injector wins; otherwise the backend config's fault plan
        # governs this front-end's wire surfaces too (one --fault-plan flag
        # drives the whole deployment).
        self.fault_injector = (
            fault_injector
            if fault_injector is not None
            else maybe_injector(getattr(config, "fault_plan", None))
        )

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    async def _before_listen(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.parallelism, thread_name_prefix="fuse-frontend"
        )

    async def _before_unbind(self) -> None:
        """Refuse every queued request no round has taken yet, then let the
        rounds in flight finish: each waiter resolves exactly once, with
        its outcome or :class:`ServerClosing`, and no drain task outlives
        the front-end."""
        for queue in self._queues.values():
            while queue:
                _, waiter = queue.popleft()
                if not waiter.done():
                    waiter.set_exception(ServerClosing("front-end is shutting down"))
        if self._drains:
            await asyncio.gather(*self._drains.values(), return_exceptions=True)

    async def _after_unbind(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _hello_extra(self) -> dict:
        return {
            "shards": int(getattr(self.server, "num_shards", 1) or 1),
            # adapter_policy lets a client discover how this deployment
            # personalizes (scope, rank, tier budgets) without a side
            # channel.
            "adapter_policy": self.server.policy.to_dict(),
            # the traffic classes, budgets and rate limits this deployment
            # schedules under — clients pick a priority from these
            "scheduling": self.scheduler.to_dict(),
        }

    async def _dispatch_extra(self, message: dict) -> dict:
        kind = message["type"]
        if kind == "submit":
            return await self._submit(message)
        if kind == "metrics":
            snapshot = await self._run_blocking(self.server.metrics_snapshot)
            # Overlay the front door's admission counters: a shed request
            # never reached the backend, so only this tier knows about it.
            snapshot = dict(snapshot)
            snapshot["shed"] = snapshot.get("shed", 0) + self.admission.shed
            return {"type": "metrics_report", "metrics": snapshot}
        if kind == "prometheus":
            text = await self._run_blocking(self.server.to_prometheus)
            if self.admission.shed:
                text = merge_expositions(
                    [(text, None), (self.admission.to_prometheus(), {"tier": "frontend"})]
                )
            return {"type": "prometheus_report", "text": text}
        if kind == "export_user":
            return await self._export_user(message)
        if kind == "import_user":
            return await self._import_user(message)
        return await super()._dispatch_extra(message)

    def _pong(self) -> dict:
        """Pong with the backend's health: a degraded backend (a shard past
        its restart budget) answers pings but advertises it, so a router's
        probe can mark it down and drain its users to replicas."""
        reply = {"type": "pong"}
        if getattr(self.server, "degraded", False):
            reply["degraded"] = True
        return reply

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self, user: Hashable) -> None:
        """Charge the user's token bucket or shed the request, before any
        backend work: a rate-limited frame must not reach a shard queue."""
        if self.scheduler.rate_limit_per_user is None:
            return
        now = self.clock.now()
        bucket = self._buckets.get(user)
        if bucket is None:
            while len(self._buckets) >= self.MAX_TRACKED_USERS:
                self._buckets.popitem(last=False)
            bucket = self._buckets[user] = TokenBucket(
                self.scheduler.rate_limit_per_user,
                self.scheduler.rate_limit_burst,
                now=now,
            )
        else:
            self._buckets.move_to_end(user)
        if bucket.try_acquire(now):
            return
        self.admission.record_shed()
        retry_after_ms = max(
            bucket.retry_after_s(now) * 1000.0, self.scheduler.retry_after_ms
        )
        raise RateLimited(
            f"user {user!r} exceeded {self.scheduler.rate_limit_per_user:g} "
            f"requests/s (burst {self.scheduler.rate_limit_burst:g})",
            retry_after_ms=retry_after_ms,
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def _submit(self, message: dict) -> dict:
        user, cloud, priority, deadline_ms = _parse_submit(message)
        self._admit(user)
        loop = asyncio.get_running_loop()
        start = loop.time()
        joints = await self._queue(user, (user, cloud, priority, deadline_ms))
        return {
            "type": "prediction",
            "user": user,
            "joints": np.asarray(joints),
            "latency_ms": (loop.time() - start) * 1000.0,
        }

    async def _export_user(self, message: dict) -> dict:
        user = _parse_user(message, "export_user")
        forget = bool(message.get("forget", False))
        # A round of its own in the user's shard queue: the export drains
        # (flushes) the shard, and the snapshot holds exactly the frames
        # that arrived before this request.
        state = await self._queue(user, partial(self.server.export_user, user, forget))
        return {"type": "user_state", "user": user, "state": state}

    async def _import_user(self, message: dict) -> dict:
        state = message.get("state")
        if not isinstance(state, dict):
            raise transport.ProtocolError("import_user requires a state mapping")
        user = _parse_user(state, "import_user")
        user = await self._queue(user, partial(self.server.import_user, state))
        return {"type": "imported", "user": user}

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------
    def _queue(self, user: Hashable, request) -> asyncio.Future:
        """Append ``request`` to the user's shard queue — now, so queue
        order is arrival order — and start that shard's drain task if none
        runs.  The returned future resolves with the request's own
        outcome."""
        if self._closing.is_set():
            raise ServerClosing("front-end is shutting down")
        shard_index = getattr(self.server, "shard_index", None)
        index = shard_index(user) if callable(shard_index) else 0
        waiter = asyncio.get_running_loop().create_future()
        self._queues.setdefault(index, deque()).append((request, waiter))
        if index not in self._drains:
            self._drains[index] = asyncio.ensure_future(self._drain(index))
        return waiter

    async def _drain(self, index: int) -> None:
        """Work through one shard's queue a round at a time until it is
        empty; every waiter of a round is answered when the round ends."""
        queue = self._queues[index]
        try:
            while queue:
                entries = _next_round(queue)
                head = entries[0][0]
                try:
                    if callable(head):  # a user-state operation
                        outcomes = [await self._run_blocking(head)]
                    else:
                        frames = [request for request, _ in entries]
                        outcomes = await self._run_blocking(self._commit, frames)
                except Exception as error:  # the round itself failed
                    outcomes = [error] * len(entries)
                for (_, waiter), outcome in zip(entries, outcomes):
                    if waiter.done():  # its request task was cancelled
                        continue
                    if isinstance(outcome, Exception):
                        waiter.set_exception(outcome)
                    else:
                        waiter.set_result(outcome)
        finally:
            del self._drains[index]

    def _commit(self, frames: Sequence[tuple]) -> List:
        """One round on the executor: enqueue every frame in one backend
        call, then resolve the handles (the first pending one flushes the
        shard).  Returns one outcome per frame: its joints, or its own
        exception."""
        outcomes: List = []
        for handle in self.server.enqueue_many(frames):
            if isinstance(handle, Exception):  # refused at admission
                outcomes.append(handle)
                continue
            try:
                outcomes.append(handle.result(flush=True))
            except Exception as error:
                if isinstance(error, FrameDropped):
                    # Evicted, or lost with a crashed shard: retryable.
                    error.retry_after_ms = self.scheduler.retry_after_ms
                outcomes.append(error)
        return outcomes

    async def _run_blocking(self, fn, *args):
        if self._executor is None:
            raise ServerClosing("front-end is not running")
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)


def _next_round(queue: deque) -> list:
    """Pop one round off a shard queue: a user-state operation alone, or
    every frame up to the next such operation."""
    if callable(queue[0][0]):
        return [queue.popleft()]
    entries = []
    while queue and not callable(queue[0][0]):
        entries.append(queue.popleft())
    return entries


def _parse_frame(frame: dict) -> PointCloudFrame:
    points = np.asarray(frame["points"], dtype=float)
    timestamp = float(frame.get("timestamp", 0.0))
    frame_index = int(frame.get("frame_index", 0))
    return PointCloudFrame(points, timestamp=timestamp, frame_index=frame_index)


def _parse_user(message: dict, kind: str) -> Hashable:
    """A request's ``user``: a str or an int, never a bool.

    Those are the ids a user's state keeps through export, migration and
    failover restore (:func:`repro.serve.migration.validate_user_state`),
    so any other is refused here, on both tiers, before admission control
    or any queue.
    """
    user = message.get("user")
    if isinstance(user, bool) or not isinstance(user, (str, int)):
        raise transport.ProtocolError(f"{kind} needs a str or int user id, got {user!r}")
    return user


def _parse_submit(
    message: dict,
) -> Tuple[Hashable, PointCloudFrame, Optional[str], Optional[float]]:
    """A ``submit``'s ``(user, cloud, priority, deadline_ms)``, on both tiers.

    Any malformed field is a :class:`ProtocolError` before admission
    control or any queue.  ``deadline_ms`` must be finite and non-negative:
    ``0`` is an already-spent budget the backend sheds, a negative,
    infinite or NaN budget is a client error.
    """
    user = _parse_user(message, "submit")
    try:
        cloud = _parse_frame(message["frame"])
    except (KeyError, TypeError, ValueError) as error:
        raise transport.ProtocolError(f"malformed submit message: {error}") from error
    priority = message.get("priority")
    if priority is not None and not isinstance(priority, str):
        raise transport.ProtocolError("priority must be a traffic class name")
    deadline_ms = message.get("deadline_ms")
    if deadline_ms is not None:
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError) as error:
            raise transport.ProtocolError(f"malformed deadline_ms: {error}") from error
        if not math.isfinite(deadline_ms) or deadline_ms < 0:
            raise transport.ProtocolError(
                f"deadline_ms must be finite and >= 0, got {deadline_ms!r}"
            )
    return user, cloud, priority, deadline_ms


def _error_message(error: Exception, request_id=None) -> dict:
    if isinstance(error, ServerError):
        # A relayed backend error (router tier): keep the *origin* class
        # name so a client's RateLimited backoff works through the relay.
        message = {"type": "error", "error": error.error, "detail": error.detail}
    else:
        message = {"type": "error", "error": type(error).__name__, "detail": str(error)}
    retry_after_ms = getattr(error, "retry_after_ms", None)
    if retry_after_ms is not None:
        # Shedding contract: the client may retry this request after the
        # hinted delay (admission control, drop_oldest eviction).
        message["retry_after_ms"] = float(retry_after_ms)
    if request_id is not None:
        message["id"] = request_id
    return message


def _path_mode(path: str) -> int:
    """The path's stat mode, 0 when it does not exist."""
    try:
        return os.stat(path).st_mode
    except OSError:
        return 0


class ServerError(RuntimeError):
    """An ``error`` frame from the server, with its structured fields.

    ``error`` is the server-side exception class name (``"RateLimited"``,
    ``"FrameDropped"``, ...), ``retry_after_ms`` the shedding contract's
    retry hint when the server attached one.  ``str(exc)`` keeps the
    pre-structured ``server error <name>: <detail>`` wording.
    """

    def __init__(self, error: str, detail: str, retry_after_ms: Optional[float] = None):
        super().__init__(f"server error {error}: {detail}")
        self.error = error
        self.detail = detail
        self.retry_after_ms = retry_after_ms


class AsyncPoseClient:
    """Asyncio client of a :class:`PoseFrontend` socket.

    Protocol v2: every request carries a connection-unique ``id`` and a
    reader task demultiplexes replies by ``id`` (out-of-order safe), so one
    connection can hold many requests in flight — :meth:`submit_many`
    pipelines ``submit`` requests under a bounded in-flight window, and the
    server's group commit batches whatever is in flight together.

    An ``error`` frame that carries no ``id`` cannot be attributed to one
    request, so it fails every outstanding one.
    """

    def __init__(
        self,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        reconnect: bool = False,
        rate_limit_retries: int = 4,
    ) -> None:
        if rate_limit_retries < 0:
            raise ValueError("rate_limit_retries must be >= 0")
        self.max_frame_bytes = max_frame_bytes
        #: opt-in: re-dial (with the connect call's bounded backoff) and
        #: replay the hello when a request finds the reader dead
        self.reconnect = reconnect
        #: extra attempts when the server sheds with ``RateLimited``: the
        #: client honours the reply's ``retry_after_ms`` hint between tries
        self.rate_limit_retries = rate_limit_retries
        self.unmatched_replies = 0
        self.reconnects = 0
        self.rate_limited_retries_performed = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._send_lock = asyncio.Lock()
        self._pending: Dict[object, asyncio.Future] = {}
        self._next_id = 0
        self._read_error: Optional[Exception] = None
        self._opener = None
        self._dial_policy = RetryPolicy(max_attempts=1, base_delay_s=0.05, max_delay_s=1.0)
        self._redial_lock = asyncio.Lock()
        self._hello_done = False

    # ------------------------------------------------------------------
    # Connection
    # ------------------------------------------------------------------
    async def connect_unix(
        self,
        path: str,
        retries: int = 0,
        backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "AsyncPoseClient":
        """Connect to a Unix socket, optionally retrying with backoff.

        ``retries`` extra attempts are spaced by an exponentially growing
        delay (``backoff_s``, doubled per attempt, capped at
        ``max_backoff_s``) — enough to absorb the race between launching
        ``fuse-serve`` and its socket appearing, without spinning.  An
        explicit ``retry_policy`` (:class:`repro.serve.RetryPolicy`)
        replaces all three knobs, adding deterministic seeded jitter.
        """
        return await self._connect(
            lambda: asyncio.open_unix_connection(path),
            self._dial_policy_from(retries, backoff_s, max_backoff_s, retry_policy),
        )

    async def connect_tcp(
        self,
        host: str,
        port: int,
        retries: int = 0,
        backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "AsyncPoseClient":
        """Connect over TCP, optionally retrying with bounded backoff."""
        return await self._connect(
            lambda: asyncio.open_connection(host, port),
            self._dial_policy_from(retries, backoff_s, max_backoff_s, retry_policy),
        )

    @staticmethod
    def _dial_policy_from(
        retries: int,
        backoff_s: float,
        max_backoff_s: float,
        retry_policy: Optional[RetryPolicy],
    ) -> RetryPolicy:
        """The legacy knobs expressed as a :class:`RetryPolicy` (the legacy
        schedule — ``backoff_s`` doubled per attempt, capped — is exactly
        the policy's jitter-free exponential)."""
        if retry_policy is not None:
            return retry_policy
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s <= 0 or max_backoff_s <= 0:
            raise ValueError("backoff delays must be positive")
        return RetryPolicy(
            max_attempts=retries + 1, base_delay_s=backoff_s, max_delay_s=max_backoff_s
        )

    async def _connect(self, opener, retry_policy: RetryPolicy) -> "AsyncPoseClient":
        # Remember how to dial: an opt-in reconnecting client re-dials with
        # the same opener and backoff schedule when its reader dies.
        self._opener = opener
        self._dial_policy = retry_policy
        for attempt in range(retry_policy.max_attempts):
            try:
                self._reader, self._writer = await opener()
                break
            except (ConnectionError, FileNotFoundError, OSError) as error:
                if attempt == retry_policy.max_attempts - 1:
                    raise ConnectionError(
                        f"could not connect after {retry_policy.max_attempts} "
                        f"attempt(s): {error}"
                    ) from error
                await asyncio.sleep(retry_policy.delay(attempt, salt="dial"))
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            self._reader = self._writer = None
        self._fail_outstanding(ConnectionError("client closed"))

    async def __aenter__(self) -> "AsyncPoseClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Reply demultiplexing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        error: Exception = ConnectionError("server closed the connection")
        try:
            while True:
                framed = await read_message(self._reader, self.max_frame_bytes)
                if framed is None:
                    break
                self._route(framed[0])
        except asyncio.CancelledError:
            self._fail_outstanding(ConnectionError("client closed"))
            raise
        except (WireError, ConnectionError, OSError) as caught:
            error = caught
        self._read_error = error
        self._fail_outstanding(error)

    def _route(self, message: dict) -> None:
        """One incoming frame: a correlated reply, or unmatched."""
        request_id = message.get("id")
        if request_id is not None and request_id in self._pending:
            self._resolve(self._pending.pop(request_id), message)
            return
        if request_id is None and message["type"] == "error":
            # The server sends an uncorrelated error only for a fault it
            # cannot pin on one request (an unparseable frame, a request
            # without an id) — blaming any one request would point the
            # caller at the wrong submission.
            self._fail_outstanding(
                RuntimeError(f"server error {message['error']}: {message['detail']}")
            )
            return
        self.unmatched_replies += 1

    @staticmethod
    def _resolve(future: asyncio.Future, message: dict) -> None:
        if future.done():
            return
        if message["type"] == "error":
            future.set_exception(
                ServerError(
                    message["error"],
                    message["detail"],
                    retry_after_ms=message.get("retry_after_ms"),
                )
            )
        else:
            future.set_result(message)

    def _fail_outstanding(self, error: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    def _claim_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def request(self, message: dict) -> dict:
        """Send one request and await its correlated reply.

        Raises on an ``error`` reply.  Many requests may be in flight at
        once; replies resolve by ``id``.
        """
        if self._reader is None or self._writer is None:
            raise RuntimeError("client is not connected")
        if self._reader_task is not None and self._reader_task.done():
            if not (self.reconnect and self._opener is not None):
                # The reader died (framing fault, reset): registering a
                # future now would await a reply nothing can ever deliver.
                raise ConnectionError(
                    f"connection is broken: {self._read_error or 'reader stopped'}"
                )
            await self._redial()
        request_id = message.get("id")
        if request_id is None:
            request_id = self._claim_id()
            message = {**message, "id": request_id}
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._send_lock:
                await write_message(self._writer, message, max_frame_bytes=self.max_frame_bytes)
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def request_retrying(self, message: dict) -> dict:
        """Send one request, honouring the server's shedding contract.

        A reply of ``error == "RateLimited"`` is retried up to
        ``rate_limit_retries`` extra times, sleeping the reply's
        ``retry_after_ms`` hint between attempts; every other error raises
        immediately, exactly like :meth:`request`.
        """
        attempts = 0
        while True:
            try:
                return await self.request(dict(message))
            except ServerError as error:
                if error.error != "RateLimited" or attempts >= self.rate_limit_retries:
                    raise
                attempts += 1
                self.rate_limited_retries_performed += 1
                await asyncio.sleep((error.retry_after_ms or 25.0) / 1000.0)

    async def _redial(self) -> None:
        """Re-dial a dead connection and replay the hello handshake.

        Outstanding requests of the old connection have already failed
        (the dying reader failed them); only *new* requests ride the new
        socket.  Serialized: concurrent requests that all found the reader
        dead perform one redial between them.
        """
        async with self._redial_lock:
            if self._reader_task is not None and not self._reader_task.done():
                return  # a concurrent request already redialed
            writer = self._writer
            self._reader = self._writer = None
            self._reader_task = None
            if writer is not None:
                writer.close()
                with contextlib.suppress(ConnectionError, BrokenPipeError, OSError):
                    await writer.wait_closed()
            self._read_error = None
            await self._connect(self._opener, self._dial_policy)
            self.reconnects += 1
            if self._hello_done:
                await self.hello()  # re-announce the protocol

    async def hello(self) -> dict:
        reply = await self.request({"type": "hello", "protocol": PROTOCOL_VERSION})
        self._hello_done = True
        return reply

    async def ping(self) -> bool:
        return (await self.request({"type": "ping"}))["type"] == "pong"

    @staticmethod
    def _frame_payload(frame: PointCloudFrame) -> dict:
        return {
            "points": frame.points,
            "timestamp": frame.timestamp,
            "frame_index": frame.frame_index,
        }

    @staticmethod
    def _scheduling_fields(
        message: dict, priority: Optional[str], deadline_ms: Optional[float]
    ) -> dict:
        if priority is not None:
            message["priority"] = priority
        if deadline_ms is not None:
            message["deadline_ms"] = float(deadline_ms)
        return message

    async def submit(
        self,
        user_id,
        frame: PointCloudFrame,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Submit one frame; returns the ``(joints, 3)`` prediction.

        ``priority`` names one of the server's traffic classes
        (``"interactive"`` / ``"bulk"`` by default) and ``deadline_ms``
        overrides the class's latency budget for this one frame.  A
        rate-limited reply is retried with the server's backoff hint.
        """
        message = self._scheduling_fields(
            {"type": "submit", "user": user_id, "frame": self._frame_payload(frame)},
            priority,
            deadline_ms,
        )
        reply = await self.request_retrying(message)
        return np.asarray(reply["joints"])

    async def submit_many(
        self,
        user_id,
        frames: Sequence[PointCloudFrame],
        max_in_flight: int = 8,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[np.ndarray]:
        """Pipeline many submits under a bounded in-flight window.

        Frames are sent in order on this one connection (the front-end's
        per-shard queues preserve that order into the serving layer), up
        to ``max_in_flight`` awaiting replies at any moment.  Returns the
        predictions in frame order.
        """
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        window = asyncio.Semaphore(max_in_flight)
        results: List[Optional[np.ndarray]] = [None] * len(frames)

        async def one(index: int, frame: PointCloudFrame) -> None:
            try:
                results[index] = await self.submit(
                    user_id, frame, priority=priority, deadline_ms=deadline_ms
                )
            finally:
                window.release()

        tasks: List[asyncio.Task] = []
        try:
            for index, frame in enumerate(frames):
                await window.acquire()
                tasks.append(asyncio.ensure_future(one(index, frame)))
            await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Live user migration
    # ------------------------------------------------------------------
    async def export_user(self, user_id, forget: bool = False) -> Optional[dict]:
        """Fetch a user's portable state (session ring + adapter archive).

        The server drains the user's shard first, so the state reflects
        every accepted frame.  ``forget=True`` atomically removes the user
        server-side after the snapshot — the move half of a migration.
        Returns ``None`` for a user the server has never seen.
        """
        reply = await self.request(
            {"type": "export_user", "user": user_id, "forget": bool(forget)}
        )
        return reply["state"]

    async def import_user(self, state: dict):
        """Install a user state exported elsewhere; returns the user id."""
        reply = await self.request({"type": "import_user", "state": state})
        return reply["user"]

    # ------------------------------------------------------------------
    # Observability / control
    # ------------------------------------------------------------------
    async def metrics(self) -> dict:
        return (await self.request({"type": "metrics"}))["metrics"]

    async def prometheus(self) -> str:
        return (await self.request({"type": "prometheus"}))["text"]

    async def shutdown(self) -> None:
        """Ask the front-end to stop (requires ``allow_remote_shutdown``)."""
        await self.request({"type": "shutdown"})
