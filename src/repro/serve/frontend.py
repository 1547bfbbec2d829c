"""Asyncio socket front-end: network ingress for the serving subsystem.

:class:`PoseFrontend` decouples request ingress from shard compute.  It
accepts length-prefixed msgpack/JSON frames (:mod:`repro.serve.transport`)
over TCP or a Unix socket, routes each request to the backend server —
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
* per-shard **FIFO ordering locks** keep each shard's submissions in
  arrival order (queue positions are claimed synchronously at dispatch
  time — :class:`_FifoShardLock`), so a user's frame order — what
  streaming fusion depends on — survives pipelining while different
  shards still execute concurrently;
* the streaming ``enqueue`` path returns a ``ticket`` immediately and the
  completed prediction is **pushed** later, so the cross-user micro-batcher
  finally forms batches from remote traffic instead of being defeated by
  per-frame round-trips; a background poller applies the server's latency
  deadline while tickets are outstanding;
* ``submit_batch`` carries N frames in one frame (contiguous
  :class:`repro.serve.transport.ArrayBlock` payload) and enqueues them with
  one backend batch call per shard — the cheapest way to feed the batcher
  over a socket.

A request without an int or str ``id`` is answered with an uncorrelated
``error`` frame (``ProtocolError``) and the connection keeps reading.

Backpressure surfaces exactly like in-process serving: a full shard queue
drops or rejects per :class:`repro.serve.ServeConfig`, and the client sees
a ``prediction``, a pushed resolution, or an ``error`` frame per request.
Framing violations (truncated or oversized frames, unknown codecs) close
the connection after a best-effort ``error`` frame — the stream cannot be
resynchronized.

:class:`AsyncPoseClient` is the matching client used by the examples, the
tests and the benchmark harness.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import stat
from collections import Counter, OrderedDict, deque
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
    CODEC_JSON,
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ArrayBlock,
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

_log = logging.getLogger(__name__)


class ServerClosing(RuntimeError):
    """The front-end refused a request because it is shutting down."""


class _TruncatedByFault(Exception):
    """Internal write-loop signal: an injected truncation closed the writer."""


class _FifoShardLock:
    """A FIFO lock whose queue position is taken *synchronously*.

    ``asyncio.Lock`` wakes waiters first-in first-out, but a task only
    joins the queue when it *awaits* ``acquire`` — a dispatch path with an
    await before the acquire (``submit_batch`` fans out one task per
    shard) would lose its arrival-order slot to a later request that
    reaches its lock without suspending.  :meth:`claim` registers the
    position at dispatch time, synchronously; the holder awaits the claim
    when it is ready to enqueue.  Per-shard submission order therefore
    always equals request arrival order.
    """

    __slots__ = ("_locked", "_waiters")

    def __init__(self) -> None:
        self._locked = False
        self._waiters: "deque[asyncio.Future]" = deque()

    def claim(self) -> asyncio.Future:
        """Take the next queue position now; await the result to hold it."""
        claim = asyncio.get_running_loop().create_future()
        if self._locked or self._waiters:
            self._waiters.append(claim)
        else:
            self._locked = True
            claim.set_result(None)
        return claim

    async def acquire(self, claim: asyncio.Future) -> None:
        try:
            await claim
        except asyncio.CancelledError:
            if claim.done() and not claim.cancelled():
                self.release()  # granted concurrently with the cancellation
            else:
                with contextlib.suppress(ValueError):
                    self._waiters.remove(claim)
            raise

    def release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():  # skip claims their tasks abandoned
                waiter.set_result(None)
                return
        self._locked = False

    @contextlib.asynccontextmanager
    async def held(self, claim: asyncio.Future):
        await self.acquire(claim)
        try:
            yield
        finally:
            self.release()


class _Connection:
    """Per-connection pipelining state, owned by the event loop."""

    __slots__ = (
        "reader",
        "writer",
        "codec",
        "outbox",
        "window",
        "inflight",
        "tickets",
        "tasks",
        "credits",
        "deferred",
    )

    def __init__(
        self, reader, writer, max_in_flight: int, push_credits: Optional[int] = None
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.codec = CODEC_JSON
        #: replies and pushes serialized onto the socket by the write
        #: loop, as ``(message, codec, on_written)`` triples (``None`` is
        #: the shutdown sentinel): every reply is encoded in the codec of
        #: *its own* request, and ``on_written`` releases the dispatch
        #: window slot
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
        #: streaming ledger: ticket id -> (user_id, pending handle, codec)
        self.tickets: "OrderedDict" = OrderedDict()
        self.tasks: Set[asyncio.Task] = set()
        #: remaining push credits (``None`` disables flow control): every
        #: server-initiated push spends one; the client replenishes with a
        #: ``credits`` grant as it consumes pushes
        self.credits = push_credits
        #: pushes awaiting credit, in completion order
        self.deferred: "deque[tuple]" = deque()


class SocketServerBase:
    """Shared asyncio socket-serving machinery: listener plus pipelining.

    Owns everything about speaking the wire protocol to *clients*: the
    listener lifecycle, the per-connection read/write loops, the pipelined
    dispatch window, the synchronous-claim FIFO ordering locks, the
    credit-based push flow control, and the protocol-generic message types
    (``hello``, ``ping``, ``credits``, ``shutdown``).

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
        push_credits: Optional[int] = None,
    ) -> None:
        if (host is None) == (unix_path is None):
            raise ValueError("provide exactly one of host / unix_path")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if push_credits is not None and push_credits < 1:
            raise ValueError("push_credits must be >= 1, or None for no flow control")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.max_frame_bytes = max_frame_bytes
        self.max_in_flight = max_in_flight
        self.allow_remote_shutdown = allow_remote_shutdown
        self.push_credits = push_credits
        self._listener: Optional[asyncio.AbstractServer] = None
        self._closing = asyncio.Event()
        self._connections: Set[_Connection] = set()
        self._locks: Dict[Hashable, _FifoShardLock] = {}
        self.connections_served = 0
        self.requests_served = 0
        self.predictions_pushed = 0
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
        conn = _Connection(reader, writer, self.max_in_flight, self.push_credits)
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
                    conn.outbox.put_nowait((_error_message(error), conn.codec, None))
                    break
                if framed is None:
                    break  # clean EOF between frames
                message, codec = framed
                conn.codec = codec  # fallback for unparseable-frame errors
                request_id = message.get("id")
                if not isinstance(request_id, (int, str)):
                    conn.outbox.put_nowait(
                        (
                            _error_message(
                                transport.ProtocolError(
                                    "every request requires a request id (an int or str)"
                                )
                            ),
                            codec,
                            None,
                        )
                    )
                    continue
                if request_id in conn.inflight:
                    conn.outbox.put_nowait(
                        (
                            _error_message(
                                transport.ProtocolError(
                                    f"request id {request_id!r} is already in flight"
                                ),
                                request_id=request_id,
                            ),
                            codec,
                            None,
                        )
                    )
                    continue
                # Acquire the window in the read loop: a full window stops
                # reads (backpressure) and guarantees dispatch tasks are
                # created — and therefore hit the shard locks — in arrival
                # order.
                await conn.window.acquire()
                conn.inflight.add(request_id)
                task = asyncio.ensure_future(
                    self._serve_pipelined(conn, message, request_id, codec)
                )
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
            conn.tickets.clear()
            conn.deferred.clear()
            writer.close()
            # Suppress CancelledError too: stop() tears connections down
            # mid-wait and the close has already been issued above.
            with contextlib.suppress(ConnectionError, BrokenPipeError, asyncio.CancelledError):
                await writer.wait_closed()

    async def _write_loop(self, conn: _Connection) -> None:
        """Serialize every reply and push of one connection onto its socket."""
        while True:
            item = await conn.outbox.get()
            if item is None:
                return
            message, codec, on_written = item
            try:
                await self._write_frame(conn, message, codec)
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
                fallback = _error_message(error)
                for key in ("id", "ticket"):
                    if key in message:
                        fallback[key] = message[key]
                try:
                    await write_message(conn.writer, fallback, codec, self.max_frame_bytes)
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

    async def _write_frame(self, conn: _Connection, message: dict, codec: str) -> None:
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
                data = encode_message(message, codec, self.max_frame_bytes)
                if corrupt is not None:
                    conn.writer.write(FaultInjector.corrupt_bytes(data))
                    await conn.writer.drain()
                    return
                conn.writer.write(FaultInjector.truncate_bytes(data))
                await conn.writer.drain()
                conn.writer.close()  # mid-frame hangup: the peer cannot resync
                raise _TruncatedByFault()
        await write_message(conn.writer, message, codec, self.max_frame_bytes)

    @staticmethod
    async def _drain_outbox(conn: _Connection) -> None:
        """Consume the outbox of a dead connection, freeing window slots."""
        while True:
            leftover = await conn.outbox.get()
            if leftover is None:
                return
            if leftover[2] is not None:
                leftover[2]()

    async def _serve_pipelined(
        self, conn: _Connection, message: dict, request_id, codec: str
    ) -> None:
        try:
            reply = await self._serve(conn, message, request_id, codec)
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
        conn.outbox.put_nowait(
            (dict(reply, id=reply.get("id", request_id)), codec, conn.window.release)
        )
        self.requests_served += 1
        if reply["type"] == "goodbye":
            self._closing.set()

    async def _serve(
        self, conn: _Connection, message: dict, request_id, codec: str
    ) -> Optional[dict]:
        try:
            reply = await self._dispatch(conn, message, request_id, codec)
        except (FrameDropped, QueueFull, RateLimited, ServerClosing) as error:
            reply = _error_message(error, request_id=request_id)
        except Exception as error:  # backend fault: report, keep serving
            self.protocol_errors += 1
            reply = _error_message(error, request_id=request_id)
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
    async def _dispatch(self, conn: _Connection, message: dict, request_id, codec: str) -> dict:
        kind = message["type"]
        if kind == "hello":
            reply = {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "codecs": list(available_codecs()),
                "max_in_flight": self.max_in_flight,
                # push flow control: the per-connection credit budget, or
                # None when this server pushes without credit accounting
                "push_credits": self.push_credits,
            }
            reply.update(self._hello_extra())
            return reply
        if kind == "ping":
            return self._pong()
        if kind == "credits":
            return self._grant_credits(conn, message)
        if kind == "shutdown":
            if not self.allow_remote_shutdown:
                raise ServerClosing("remote shutdown is disabled on this front-end")
            return {"type": "goodbye"}
        return await self._dispatch_extra(conn, message, request_id, codec)

    def _hello_extra(self) -> dict:
        """Subclass-specific fields merged into the ``hello`` reply."""
        return {}

    def _pong(self) -> dict:
        """The ``ping`` reply; subclasses may attach health fields."""
        return {"type": "pong"}

    async def _dispatch_extra(
        self, conn: _Connection, message: dict, request_id, codec: str
    ) -> dict:
        raise transport.ProtocolError(
            f"front-end cannot serve message type {message['type']!r}"
        )

    # ------------------------------------------------------------------
    # Push flow control
    # ------------------------------------------------------------------
    def _push(self, conn: _Connection, message: dict, codec: str) -> None:
        """Queue a server-initiated frame, spending one push credit.

        With flow control off (``push_credits=None``) this is a plain
        outbox put.  Otherwise a push with no credit left is *deferred* —
        held server-side, in completion order, until the client grants
        more — so a slow consumer bounds the reply queue at its own pace
        instead of growing it without limit.
        """
        self.predictions_pushed += 1
        if conn.credits is None:
            conn.outbox.put_nowait((message, codec, None))
            return
        if conn.credits > 0:
            conn.credits -= 1
            conn.outbox.put_nowait((message, codec, None))
        else:
            conn.deferred.append((message, codec))

    def _grant_credits(self, conn: _Connection, message: dict) -> dict:
        """Apply a ``credits`` grant and release deferred pushes in order."""
        try:
            grant = int(message.get("grant", 0))
        except (TypeError, ValueError) as error:
            raise transport.ProtocolError(f"malformed credits grant: {error}") from error
        if grant < 0:
            raise transport.ProtocolError("credits grant must be >= 0")
        if conn.credits is not None:
            conn.credits += grant
            while conn.credits > 0 and conn.deferred:
                deferred_message, deferred_codec = conn.deferred.popleft()
                conn.credits -= 1
                conn.outbox.put_nowait((deferred_message, deferred_codec, None))
        return {"type": "credits", "available": conn.credits}

    # ------------------------------------------------------------------
    # FIFO ordering locks
    # ------------------------------------------------------------------
    def _fifo_lock(self, key: Hashable) -> _FifoShardLock:
        """The FIFO ordering lock of ``key`` (a shard index or a backend
        name): per-key submission order equals request arrival order even
        under pipelining, because claims are taken synchronously at
        dispatch time."""
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = _FifoShardLock()
        return lock


class PoseFrontend(SocketServerBase):
    """Socket front-end over any server with the :class:`PoseServer` façade.

    Parameters
    ----------
    server:
        The backend: a :class:`repro.serve.ProcessShardedPoseServer` for a
        process-per-shard deployment, or a :class:`repro.serve.PoseServer`
        (serialized through a single executor thread).
    host / port:
        TCP listening address, or
    unix_path:
        Unix-domain socket path (mutually exclusive with ``host``).
    max_frame_bytes:
        Per-frame payload bound enforced before any payload is read.
    parallelism:
        Executor threads for backend calls.  Defaults to the backend's
        ``num_shards`` when the backend declares ``parallel_safe = True``
        (the process-per-shard server does: each shard's commands
        serialize on their own lock) and to 1 otherwise — the in-process
        server is single-threaded by design and must never see
        concurrent calls.  More threads than shards buys nothing: each
        shard serializes its own commands.
    max_in_flight:
        Bound on concurrently dispatched requests per connection
        (pipelining).  When a connection's window is full the front-end
        stops reading from it, so the socket's own buffers are the only
        queue ahead of the dispatch layer.
    protocol:
        Accepted only as ``2``, the one protocol generation spoken; any
        other value raises ``ValueError``.
    poll_interval_s:
        Cadence of the background poller that applies the backend's
        micro-batch latency deadline while streaming tickets are
        outstanding.  Defaults to the backend's ``config.max_delay_s``
        (5 ms for a default :class:`repro.serve.ServeConfig`).
    allow_remote_shutdown:
        Honour the ``shutdown`` message type (handy for examples and tests;
        leave off for real deployments).
    push_credits:
        Per-connection credit budget for server-initiated pushes (the
        streaming ``enqueue`` resolutions).  ``None`` — the default —
        pushes unconditionally, the pre-credit behaviour; an integer
        defers pushes beyond the budget until the client grants more with
        a ``credits`` frame (:class:`AsyncPoseClient` grants
        automatically as it consumes pushes).
    clock:
        Time source for admission control (token-bucket refill).  Any
        zero-argument callable returning seconds, or a
        :class:`repro.serve.Clock`; defaults to a monotonic clock.  Tests
        inject a :class:`repro.serve.FakeClock` to make rate-limit refill
        deterministic.

    Admission control follows the backend's
    :class:`repro.serve.SchedulingPolicy` (``server.config.scheduler``):
    when ``rate_limit_per_user`` is set, each user spends one token per
    frame at the front door and an exhausted bucket sheds the request
    with a correlated ``error`` frame carrying ``retry_after_ms`` —
    before the request ever touches a shard lock or the backend.
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
        parallelism: Optional[int] = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        protocol: int = PROTOCOL_VERSION,
        poll_interval_s: Optional[float] = None,
        allow_remote_shutdown: bool = False,
        push_credits: Optional[int] = None,
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
            push_credits=push_credits,
        )
        self.server = server
        if poll_interval_s is None:
            config = getattr(server, "config", None)
            poll_interval_s = getattr(config, "max_delay_s", None) or 0.005
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        self.poll_interval_s = poll_interval_s
        if parallelism is None:
            if getattr(server, "parallel_safe", False):
                parallelism = int(getattr(server, "num_shards", 1) or 1)
            else:
                parallelism = 1
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self._executor: Optional[ThreadPoolExecutor] = None
        self._poller: Optional[asyncio.Task] = None
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

    async def _after_listen(self) -> None:
        self._poller = asyncio.ensure_future(self._poll_loop())

    async def _before_unbind(self) -> None:
        if self._poller is not None:
            self._poller.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._poller
            self._poller = None

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

    async def _dispatch_extra(
        self, conn: _Connection, message: dict, request_id, codec: str
    ) -> dict:
        kind = message["type"]
        if kind == "submit":
            return await self._submit(message)
        if kind == "enqueue":
            return await self._enqueue(conn, message, request_id, codec)
        if kind == "poll":
            produced = await self._run_blocking(self.server.poll)
            self._sweep()
            return {"type": "flushed", "produced": int(produced)}
        if kind == "flush":
            produced = await self._run_blocking(self.server.flush)
            self._sweep()
            return {"type": "flushed", "produced": int(produced)}
        if kind == "submit_batch":
            return await self._submit_batch(conn, message, request_id, codec)
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
        return await super()._dispatch_extra(conn, message, request_id, codec)

    @staticmethod
    def _parse_frame(frame: dict) -> PointCloudFrame:
        points = np.asarray(frame["points"], dtype=float)
        timestamp = float(frame.get("timestamp", 0.0))
        frame_index = int(frame.get("frame_index", 0))
        return PointCloudFrame(points, timestamp=timestamp, frame_index=frame_index)

    def _pong(self) -> dict:
        """Pong with the backend's health: a degraded backend (a shard past
        its restart budget) answers pings but advertises it, so a router's
        probe can mark it down and drain its users to replicas."""
        reply = {"type": "pong"}
        if getattr(self.server, "degraded", False):
            reply["degraded"] = True
        return reply

    def _shard_lock(self, user_id: Hashable) -> _FifoShardLock:
        """The FIFO ordering lock of the user's shard: per-shard submission
        order equals request arrival order even under pipelining (claims
        are taken synchronously at dispatch time)."""
        shard_index = getattr(self.server, "shard_index", None)
        index = shard_index(user_id) if callable(shard_index) else 0
        return self._shard_lock_by_index(index)

    def _shard_lock_by_index(self, index: int) -> _FifoShardLock:
        return self._fifo_lock(index)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _bucket(self, user: Hashable, now: float) -> TokenBucket:
        """The user's token bucket, created full on first sight (LRU-bounded)."""
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
        return bucket

    def _shed(self, user: Hashable, bucket: TokenBucket, now: float, tokens: float) -> None:
        """Record the shed and raise the correlated ``RateLimited``."""
        self.admission.record_shed()
        retry_after_ms = max(
            bucket.retry_after_s(now, tokens) * 1000.0, self.scheduler.retry_after_ms
        )
        raise RateLimited(
            f"user {user!r} exceeded {self.scheduler.rate_limit_per_user:g} "
            f"requests/s (burst {self.scheduler.rate_limit_burst:g})",
            retry_after_ms=retry_after_ms,
        )

    def _admit(self, user: Hashable, tokens: float = 1.0) -> None:
        """Charge the user's bucket or shed the request, before any backend
        work: a rate-limited frame must not consume a shard queue slot."""
        if self.scheduler.rate_limit_per_user is None:
            return
        now = self.clock.now()
        bucket = self._bucket(user, now)
        if not bucket.try_acquire(now, tokens):
            self._shed(user, bucket, now, tokens)

    def _admit_all(self, users: Sequence[Hashable]) -> None:
        """Admit a batch atomically: every user's frames fit their bucket,
        or the whole batch is shed without spending anyone's tokens."""
        if self.scheduler.rate_limit_per_user is None:
            return
        now = self.clock.now()
        counts = Counter(users)
        buckets = {user: self._bucket(user, now) for user in counts}
        for user, tokens in counts.items():
            if buckets[user].balance(now) < tokens:
                self._shed(user, buckets[user], now, tokens)
        for user, tokens in counts.items():
            buckets[user].try_acquire(now, tokens)

    async def _submit(self, message: dict) -> dict:
        if self._closing.is_set():
            raise ServerClosing("front-end is shutting down")
        try:
            user = message["user"]
            cloud = self._parse_frame(message["frame"])
        except (KeyError, TypeError, ValueError) as error:
            raise transport.ProtocolError(f"malformed submit message: {error}") from error
        priority, deadline_ms = _parse_scheduling(message)
        self._admit(user)
        loop = asyncio.get_running_loop()
        start = loop.time()
        submit = partial(self.server.submit, priority=priority, deadline_ms=deadline_ms)
        lock = self._shard_lock(user)
        async with lock.held(lock.claim()):
            joints = await self._run_blocking(submit, user, cloud)
        self._sweep()
        return {
            "type": "prediction",
            "user": user,
            "joints": np.asarray(joints),
            "latency_ms": (loop.time() - start) * 1000.0,
        }

    async def _enqueue(self, conn: _Connection, message: dict, request_id, codec: str) -> dict:
        if self._closing.is_set():
            raise ServerClosing("front-end is shutting down")
        if request_id in conn.tickets:
            raise transport.ProtocolError(
                f"ticket {request_id!r} is still outstanding on this connection"
            )
        try:
            user = message["user"]
            cloud = self._parse_frame(message["frame"])
        except (KeyError, TypeError, ValueError) as error:
            raise transport.ProtocolError(f"malformed enqueue message: {error}") from error
        priority, deadline_ms = _parse_scheduling(message)
        self._admit(user)
        enqueue = partial(self.server.enqueue, priority=priority, deadline_ms=deadline_ms)
        lock = self._shard_lock(user)
        async with lock.held(lock.claim()):
            handle = await self._run_blocking(enqueue, user, cloud)
        # Register before sweeping: this very enqueue may have completed a
        # micro-batch, in which case its own resolution is pushed right away.
        conn.tickets[request_id] = (user, handle, codec)
        self._sweep()
        return {"type": "ticket", "user": user, "ticket": request_id}

    async def _submit_batch(
        self, conn: _Connection, message: dict, request_id, codec: str
    ) -> dict:
        if self._closing.is_set():
            raise ServerClosing("front-end is shutting down")
        try:
            users = list(message["users"])
            frames = message["frames"]
            points = list(frames["points"])
            timestamps = list(frames.get("timestamps") or [0.0] * len(points))
            frame_indices = list(frames.get("frame_indices") or [0] * len(points))
        except (KeyError, TypeError, ValueError) as error:
            raise transport.ProtocolError(
                f"malformed submit_batch message: {error}"
            ) from error
        if not users or not (len(users) == len(points) == len(timestamps) == len(frame_indices)):
            raise transport.ProtocolError(
                "submit_batch requires equally sized, non-empty users/frames lists"
            )
        try:
            items: List[Tuple[Hashable, PointCloudFrame]] = [
                (
                    user,
                    PointCloudFrame(
                        np.asarray(cloud, dtype=float),
                        timestamp=float(timestamp),
                        frame_index=int(frame_index),
                    ),
                )
                for user, cloud, timestamp, frame_index in zip(
                    users, points, timestamps, frame_indices
                )
            ]
        except (TypeError, ValueError) as error:
            raise transport.ProtocolError(
                f"malformed submit_batch frame: {error}"
            ) from error
        priority, _ = _parse_scheduling(message)
        # Streamed mode: push each frame's prediction the moment its handle
        # resolves (correlated by ``batch``/``index``), ahead of the final
        # ``predictions`` reply.
        stream = bool(message.get("stream"))
        self._admit_all(users)
        loop = asyncio.get_running_loop()
        start = loop.time()

        by_shard: Dict[int, List[int]] = {}
        shard_index = getattr(self.server, "shard_index", None)
        for position, (user, _) in enumerate(items):
            index = shard_index(user) if callable(shard_index) else 0
            by_shard.setdefault(index, []).append(position)

        handles: List = [None] * len(items)

        # Claim every involved shard's queue position NOW, synchronously —
        # the fan-out below runs as separate tasks, and a later request
        # that reaches its shard lock without suspending must not overtake
        # this batch's frames on any shard.
        claims = {
            index: self._shard_lock_by_index(index).claim() for index in sorted(by_shard)
        }

        async def enqueue_shard(index: int, positions: List[int]) -> None:
            shard_items = [items[p] for p in positions]
            async with self._shard_lock_by_index(index).held(claims[index]):
                got = await self._run_blocking(self.server.enqueue_many, shard_items, priority)
            for position, handle in zip(positions, got):
                handles[position] = handle

        # Settle every shard before surfacing a failure: a sibling shard's
        # fault must not orphan half-registered handles mid-flight.
        outcomes = await asyncio.gather(
            *(enqueue_shard(index, positions) for index, positions in sorted(by_shard.items())),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome

        resolutions: List = [None] * len(items)

        async def resolve_shard(positions: List[int]) -> None:
            if not stream:
                resolved = await self._run_blocking(
                    self._resolve_handles_blocking, [handles[p] for p in positions]
                )
                for position, value in zip(positions, resolved):
                    resolutions[position] = value
                return
            # Streamed: resolve one handle at a time so each completed
            # frame is pushed as soon as it exists — the first resolution
            # flushes the micro-batch, the rest are plain reads.
            for position in positions:
                resolved = await self._run_blocking(
                    self._resolve_handles_blocking, [handles[position]]
                )
                value = resolutions[position] = resolved[0]
                if not isinstance(value, Exception):
                    self._push(
                        conn,
                        {
                            "type": "prediction",
                            "user": items[position][0],
                            "batch": request_id,
                            "index": position,
                            "joints": np.asarray(value),
                            "pushed": True,
                        },
                        codec,
                    )

        await asyncio.gather(
            *(resolve_shard(positions) for _, positions in sorted(by_shard.items()))
        )
        self._sweep()

        results: List[dict] = []
        joints: List[np.ndarray] = []
        for user, value in zip(users, resolutions):
            if isinstance(value, Exception):
                results.append(
                    {"ok": False, "user": user, "error": type(value).__name__, "detail": str(value)}
                )
            else:
                results.append({"ok": True, "user": user})
                joints.append(np.asarray(value))
        return {
            "type": "predictions",
            "results": results,
            "joints": ArrayBlock(joints),
            "latency_ms": (loop.time() - start) * 1000.0,
        }

    @staticmethod
    def _resolve_handles_blocking(handles: Sequence) -> List:
        resolved: List = []
        for handle in handles:
            if isinstance(handle, Exception):  # rejected at enqueue time
                resolved.append(handle)
                continue
            try:
                resolved.append(handle.result(flush=True))
            except (FrameDropped, QueueFull) as error:
                resolved.append(error)
        return resolved

    # ------------------------------------------------------------------
    # Live user migration
    # ------------------------------------------------------------------
    async def _export_user(self, message: dict) -> dict:
        try:
            user = message["user"]
        except KeyError as error:
            raise transport.ProtocolError(f"malformed export_user message: {error}") from error
        forget = bool(message.get("forget", False))
        # Under the user's shard lock: the export drains (flushes) the
        # shard first, and no later frame of this user may slip in between
        # the drain and the snapshot.
        lock = self._shard_lock(user)
        async with lock.held(lock.claim()):
            state = await self._run_blocking(self.server.export_user, user, forget)
        self._sweep()  # the drain may have resolved outstanding tickets
        return {"type": "user_state", "user": user, "state": state}

    async def _import_user(self, message: dict) -> dict:
        state = message.get("state")
        if not isinstance(state, dict):
            raise transport.ProtocolError("import_user requires a state mapping")
        user = state.get("user")
        lock = self._shard_lock(user)
        async with lock.held(lock.claim()):
            user = await self._run_blocking(self.server.import_user, state)
        return {"type": "imported", "user": user}

    # ------------------------------------------------------------------
    # Streaming resolution
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        """Push every resolved or dropped ticket of every connection.

        Runs on the event loop after any backend call that can resolve
        handles (a flush inside an enqueue, an explicit poll/flush, a
        submit's co-rider batch) — never blocks: ``result(flush=False)`` on
        a done handle is a plain attribute read.
        """
        for conn in self._connections:
            if not conn.tickets:
                continue
            completed = [
                ticket
                for ticket, (_, handle, _codec) in conn.tickets.items()
                if handle.done or handle.dropped
            ]
            for ticket in completed:
                user, handle, codec = conn.tickets.pop(ticket)
                if handle.dropped:
                    reason = (
                        getattr(handle, "drop_reason", None)
                        or "backpressure or shard restart"
                    )
                    push = _error_message(
                        FrameDropped(
                            f"request {ticket!r} of user {user!r} was dropped "
                            f"({reason})",
                            retry_after_ms=self.scheduler.retry_after_ms,
                        )
                    )
                    push["ticket"] = ticket
                else:
                    push = {
                        "type": "prediction",
                        "user": user,
                        "ticket": ticket,
                        "joints": np.asarray(handle.result(flush=False)),
                        "pushed": True,
                    }
                self._push(conn, push, codec)

    async def _poll_loop(self) -> None:
        """Apply the backend's latency deadline while tickets are pending.

        A failing poll is retried on the next tick.  The first failure of a
        run logs one JSON warning on the ``repro.serve.frontend`` logger
        (``event: "poll_failed"``, ``error``); the next successful poll
        logs one ``poll_recovered`` line with the run's ``failed_polls``.
        """
        failed_polls = 0
        while not self._closing.is_set():
            await asyncio.sleep(self.poll_interval_s)
            if not any(conn.tickets for conn in self._connections):
                continue
            try:
                await self._run_blocking(self.server.poll)
            except ServerClosing:
                return
            except Exception as error:  # backend hiccup: the next tick retries
                if not failed_polls:
                    entry = {"event": "poll_failed", "error": f"{type(error).__name__}: {error}"}
                    _log.warning(json.dumps(entry))
                failed_polls += 1
            else:
                if failed_polls:
                    _log.warning(
                        json.dumps({"event": "poll_recovered", "failed_polls": failed_polls})
                    )
                    failed_polls = 0
            # Sweep even after a failed poll: a crashed shard records its
            # drops in the handles before the poll raises, and those drop
            # notifications must still reach the waiting clients.
            self._sweep()

    async def _run_blocking(self, fn, *args):
        if self._executor is None:
            raise ServerClosing("front-end is not running")
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)


def _parse_scheduling(message: dict):
    """Pull ``priority`` / ``deadline_ms`` off a request message."""
    priority = message.get("priority")
    if priority is not None and not isinstance(priority, str):
        raise transport.ProtocolError("priority must be a traffic class name")
    deadline_ms = message.get("deadline_ms")
    if deadline_ms is not None:
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError) as error:
            raise transport.ProtocolError(f"malformed deadline_ms: {error}") from error
    return priority, deadline_ms


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

    Protocol v2: every request carries a connection-unique ``id``, a reader
    task demultiplexes replies by ``id`` (out-of-order safe) and pushed
    ``prediction`` frames by ``ticket``, so one connection can hold many
    requests in flight:

    * :meth:`submit_many` pipelines ``submit`` requests under a bounded
      in-flight window;
    * :meth:`stream` rides the ``enqueue``/``ticket`` path — frames join
      the server's cross-user micro-batches and resolutions are pushed
      back as they complete;
    * :meth:`submit_batch` ships N frames in one contiguous
      :class:`repro.serve.transport.ArrayBlock` frame.

    An ``error`` frame that carries neither ``id`` nor ``ticket`` cannot be
    attributed to one request, so it fails every outstanding one.
    ``codec`` selects msgpack when both sides have it; the server always
    answers in the codec of the request.
    """

    def __init__(
        self,
        codec: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        reconnect: bool = False,
        auto_credits: bool = True,
        rate_limit_retries: int = 4,
    ) -> None:
        if rate_limit_retries < 0:
            raise ValueError("rate_limit_retries must be >= 0")
        self.codec = codec if codec is not None else available_codecs()[-1]
        self.max_frame_bytes = max_frame_bytes
        #: opt-in: re-dial (with the connect call's bounded backoff) and
        #: replay the hello when a request finds the reader dead
        self.reconnect = reconnect
        #: grant push credits back automatically as pushes are consumed
        self.auto_credits = auto_credits
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
        self._tickets: Dict[object, asyncio.Future] = {}
        #: streamed submit_batch callbacks, keyed by the batch's request id
        self._streams: Dict[object, Callable[[dict], None]] = {}
        self._next_id = 0
        self._read_error: Optional[Exception] = None
        self._opener = None
        self._dial_policy = RetryPolicy(max_attempts=1, base_delay_s=0.05, max_delay_s=1.0)
        self._redial_lock = asyncio.Lock()
        self._hello_done = False
        self._push_budget: Optional[int] = None
        self._push_consumed = 0

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
        """One incoming frame: a correlated reply, a push, or unmatched."""
        request_id = message.get("id")
        if request_id is not None and request_id in self._pending:
            self._resolve(self._pending.pop(request_id), message)
            return
        ticket = message.get("ticket")
        if ticket is not None and ticket in self._tickets:
            self._resolve(self._tickets.pop(ticket), message)
            self._note_push()
            return
        batch = message.get("batch")
        if batch is not None and batch in self._streams:
            # An incremental per-frame push of a streamed submit_batch:
            # hand it to the batch's callback, keep the request pending.
            with contextlib.suppress(Exception):  # a faulty callback must
                self._streams[batch](message)  # not kill the read loop
            self._note_push()
            return
        if request_id is None and ticket is None and message["type"] == "error":
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
        for future in list(self._pending.values()) + list(self._tickets.values()):
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        self._tickets.clear()

    def _note_push(self) -> None:
        """Account one consumed push; replenish the server's credits.

        Fire-and-forget at the half-budget mark — granting per push would
        double every push's round-trips, while waiting for the budget to
        empty would stall the server's push stream on the grant's
        round-trip latency.
        """
        if self._push_budget is None or not self.auto_credits:
            return
        self._push_consumed += 1
        threshold = max(1, self._push_budget // 2)
        if self._push_consumed >= threshold:
            grant = self._push_consumed
            self._push_consumed = 0
            asyncio.ensure_future(self._grant_quietly(grant))

    async def _grant_quietly(self, grant: int) -> None:
        with contextlib.suppress(Exception):
            await self.grant_credits(grant)

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
                await write_message(self._writer, message, self.codec, self.max_frame_bytes)
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
            self._push_consumed = 0
            await self._connect(self._opener, self._dial_policy)
            self.reconnects += 1
            if self._hello_done:
                # Re-announce the protocol and refresh the negotiated
                # fields (the server's push-credit budget in particular).
                await self.hello()

    async def hello(self) -> dict:
        reply = await self.request({"type": "hello", "protocol": PROTOCOL_VERSION})
        budget = reply.get("push_credits")
        self._push_budget = int(budget) if isinstance(budget, int) else None
        self._push_consumed = 0
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
        per-shard FIFO locks preserve that order into the serving layer),
        up to ``max_in_flight`` awaiting replies at any moment.  Returns
        the predictions in frame order.
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
    # Streaming (enqueue / ticket / push)
    # ------------------------------------------------------------------
    async def enqueue(
        self,
        user_id,
        frame: PointCloudFrame,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> asyncio.Future:
        """Enqueue one frame; returns a future for the pushed prediction.

        The returned future resolves with the ``(joints, 3)`` array when
        the server pushes the completed prediction (batch full, a poll
        deadline, or an explicit :meth:`flush`); it raises if the request
        was dropped under backpressure.  ``priority`` / ``deadline_ms``
        select the frame's traffic class and budget; a rate-limited reply
        is retried (fresh ticket per attempt) with the server's backoff
        hint.
        """
        payload = self._scheduling_fields(
            {"type": "enqueue", "user": user_id, "frame": self._frame_payload(frame)},
            priority,
            deadline_ms,
        )
        attempts = 0
        loop = asyncio.get_running_loop()
        while True:
            ticket = self._claim_id()
            push: asyncio.Future = loop.create_future()
            # Register before sending: the push may beat the ticket reply
            # when this enqueue completes a micro-batch inside the server.
            self._tickets[ticket] = push
            try:
                await self.request({**payload, "id": ticket})
            except BaseException as error:
                self._tickets.pop(ticket, None)
                if (
                    isinstance(error, ServerError)
                    and error.error == "RateLimited"
                    and attempts < self.rate_limit_retries
                ):
                    attempts += 1
                    self.rate_limited_retries_performed += 1
                    await asyncio.sleep((error.retry_after_ms or 25.0) / 1000.0)
                    continue
                raise
            return push

    async def poll(self) -> int:
        """Apply the server's latency deadline; returns predictions produced."""
        return int((await self.request({"type": "poll"}))["produced"])

    async def flush(self) -> int:
        """Force the server's pending micro-batches out now."""
        return int((await self.request({"type": "flush"}))["produced"])

    async def stream(
        self,
        user_id,
        frames: Sequence[PointCloudFrame],
        max_in_flight: int = 8,
        flush: bool = True,
        return_errors: bool = False,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> List:
        """Stream frames through the server's micro-batcher, in order.

        Each frame is enqueued (joining cross-user micro-batches on the
        server) with at most ``max_in_flight`` unresolved tickets; the
        final partial batch is flushed unless ``flush=False`` (e.g. when
        co-riding clients or the server's poll deadline will flush it).
        Returns the predictions in frame order.  Every ticket is awaited
        even when some frames fail (dropped under backpressure), so
        successful predictions are never abandoned mid-stream; a failed
        frame raises after the stream settles — or, with
        ``return_errors=True``, yields the error object in its slot.
        """
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        futures: List[asyncio.Future] = []
        for index, frame in enumerate(frames):
            if index >= max_in_flight:
                with contextlib.suppress(Exception):
                    # Window pacing only; failures surface when collected.
                    await self._await_push(futures[index - max_in_flight])
            futures.append(
                await self.enqueue(
                    user_id, frame, priority=priority, deadline_ms=deadline_ms
                )
            )
        if flush and frames:
            await self.flush()
        outcomes: List = []
        first_error: Optional[Exception] = None
        for future in futures:
            try:
                outcomes.append(await self._await_push(future))
            except Exception as error:
                outcomes.append(error)
                if first_error is None:
                    first_error = error
        if first_error is not None and not return_errors:
            raise first_error
        return outcomes

    @staticmethod
    async def _await_push(future: asyncio.Future) -> np.ndarray:
        message = await future
        return np.asarray(message["joints"])

    # ------------------------------------------------------------------
    # Batched submits
    # ------------------------------------------------------------------
    async def submit_batch(
        self,
        items: Sequence[Tuple[Hashable, PointCloudFrame]],
        return_errors: bool = False,
        priority: Optional[str] = None,
        on_result: Optional[Callable[[int, Hashable, np.ndarray], None]] = None,
    ) -> List:
        """Submit N ``(user_id, frame)`` pairs in one wire frame.

        Point clouds travel as one contiguous
        :class:`repro.serve.transport.ArrayBlock` (one header + one bytes
        region per dtype/shape group).  Returns the predictions in item
        order; a frame dropped under backpressure raises — or, with
        ``return_errors=True``, yields the error object in its slot.

        ``priority`` names the traffic class every frame of the batch
        rides under.  ``on_result`` opts into *streamed* results: the
        server pushes each frame's prediction as its micro-batch resolves
        and the callback fires as ``on_result(index, user_id, joints)``,
        ahead of the final aggregate reply this method still returns.
        """
        if not items:
            raise ValueError("at least one (user, frame) item is required")
        message = {
            "type": "submit_batch",
            "users": [user for user, _ in items],
            "frames": {
                "points": ArrayBlock([frame.points for _, frame in items]),
                "timestamps": [float(frame.timestamp) for _, frame in items],
                "frame_indices": [int(frame.frame_index) for _, frame in items],
            },
        }
        if priority is not None:
            message["priority"] = priority
        if on_result is None:
            reply = await self.request_retrying(message)
        else:
            request_id = self._claim_id()
            message["id"] = request_id
            message["stream"] = True

            def deliver(push: dict) -> None:
                on_result(int(push["index"]), push["user"], np.asarray(push["joints"]))

            self._streams[request_id] = deliver
            try:
                reply = await self.request_retrying(message)
            finally:
                self._streams.pop(request_id, None)
        joints = iter(reply["joints"])
        out: List = []
        for result in reply["results"]:
            if result["ok"]:
                out.append(np.asarray(next(joints)))
                continue
            error = ServerError(result["error"], result["detail"])
            if not return_errors:
                raise error
            out.append(error)
        return out

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
    # Push flow control
    # ------------------------------------------------------------------
    async def grant_credits(self, grant: int) -> Optional[int]:
        """Grant the server ``grant`` push credits; returns its new balance
        (``None`` when the server runs without flow control)."""
        reply = await self.request({"type": "credits", "grant": int(grant)})
        return reply["available"]

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
