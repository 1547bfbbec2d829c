"""Multi-host routed serving tier: one cluster out of N ``fuse-serve``s.

:class:`PoseRouter` is a :class:`repro.serve.frontend.SocketServerBase`
that speaks wire protocol v2 to clients on the front and holds one
pipelined :class:`repro.serve.frontend.AsyncPoseClient` per backend on the
back.  A backend is any independently running front-end — a ``fuse-serve``
process on another host, typically wrapping a
:class:`repro.serve.ProcessShardedPoseServer`.

Placement
    A :class:`repro.serve.ring.HashRing` (consistent hashing, virtual
    nodes) owns user→backend placement, so a topology change remaps only
    the changed backend's arcs.  Actual routing is *placement-first*: the
    first frame of a user pins it (``_placement``), and later frames
    follow the pin even while the ring is mid-change — the pin only moves
    under the FIFO locks that also order the user's frames.

Ordering
    One FIFO lock per backend (:class:`_FifoLock`, whose queue position is
    claimed synchronously at dispatch) keeps each backend's submissions in
    arrival order.  After acquiring, a dispatch re-resolves placement: if a
    failover or migration moved the user while it waited, it re-claims the
    new backend's lock — synchronously, preserving its slot relative to
    later frames.  The lock is held for the forwarded call's whole round
    trip, so a backend sees one routed frame at a time.

Failover
    A :class:`repro.serve.health.HealthMonitor` pings every backend; a
    dead backend is removed from the ring and its users lazily fail over:
    the next frame re-places the user and restores its recent session ring
    from the router's :class:`repro.serve.migration.SessionMirror`.
    Fidelity note — the mirror holds session frames only, so a failed-over
    user's *adapter* is lost (it re-personalizes from scratch); sessions
    continue bitwise-identically.  A recovered backend is **not**
    automatically re-added (its state is stale); re-attach it explicitly
    with :meth:`add_backend`.

Migration
    Planned topology changes (:meth:`add_backend`, :meth:`remove_backend`)
    move exactly the users whose placement changes: under both backends'
    locks, ``export_user(forget=True)`` drains and snapshots the user on
    the source (session ring + the adapter's CRC-checked record, the bytes
    its spill file holds) and ``import_user`` installs it on the target —
    predictions continue bitwise-identically, adapters included.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from . import transport
from .faults import FaultInjector, RetryPolicy
from .frontend import (
    DEFAULT_MAX_IN_FLIGHT,
    AsyncPoseClient,
    ServerClosing,
    SocketServerBase,
    _parse_submit,
    _parse_user,
)
from .health import HealthMonitor
from .metrics import ServeMetrics, merge_expositions
from .migration import SessionMirror
from .ring import DEFAULT_VNODES, HashRing
from .transport import DEFAULT_MAX_FRAME_BYTES

__all__ = ["BackendSpec", "NoBackendAvailable", "PoseRouter", "RouterBackend"]

#: default router→backend retry schedule: one immediate failover retry —
#: exactly the pre-policy behaviour (the second attempt lands on the new
#: placement after a mark-down, with the mirror restore in between)
DEFAULT_FORWARD_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)

#: session frames mirrored per user for failover restore; a restored ring
#: equals the dead backend's while this is at least the backends' ring
#: capacity (``2M + 1`` frames by default)
MIRROR_CAPACITY = 64

_log = logging.getLogger(__name__)


class NoBackendAvailable(RuntimeError):
    """Every backend that could serve the request is down."""


class _FifoLock:
    """A FIFO lock whose queue position is taken *synchronously*.

    ``asyncio.Lock`` wakes waiters first-in first-out, but a task only
    joins the queue when it *awaits* ``acquire`` — a dispatch path with an
    await before the acquire would lose its arrival-order slot to a later
    request that reaches the lock without suspending.  :meth:`claim`
    registers the position at dispatch time, synchronously; the holder
    awaits the claim when it is ready.  Per-backend submission order
    therefore always equals request arrival order.
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


@dataclass(frozen=True)
class BackendSpec:
    """Where one backend listens.  Exactly one of ``host`` / ``unix_path``."""

    name: str
    host: Optional[str] = None
    port: Optional[int] = None
    unix_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("backend name must be non-empty")
        if (self.host is None) == (self.unix_path is None):
            raise ValueError("provide exactly one of host / unix_path")
        if self.host is not None and self.port is None:
            raise ValueError("a TCP backend needs a port")

    @classmethod
    def from_endpoint(cls, name: str, endpoint: str) -> "BackendSpec":
        """``host:port`` → TCP; anything else is a Unix socket path."""
        head, sep, tail = endpoint.rpartition(":")
        if sep and tail.isdigit() and "/" not in head:
            return cls(name=name, host=head or "127.0.0.1", port=int(tail))
        return cls(name=name, unix_path=endpoint)

    @property
    def endpoint(self) -> str:
        if self.unix_path is not None:
            return self.unix_path
        return f"{self.host}:{self.port}"


class RouterBackend:
    """One attached backend: its spec, client connection, and status."""

    def __init__(self, spec: BackendSpec, client: AsyncPoseClient) -> None:
        self.spec = spec
        self.client = client
        self.healthy = True
        self.hello: dict = {}
        self.frames_routed = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def shards(self) -> int:
        return int(self.hello.get("shards", 1) or 1)


class PoseRouter(SocketServerBase):
    """Consistent-hash router over N backend front-ends.

    Parameters beyond the :class:`SocketServerBase` ones:

    backends:
        The initial :class:`BackendSpec` fleet (may be empty; attach later
        with :meth:`add_backend`).
    vnodes:
        Virtual nodes per backend on the hash ring.
    connect_retries / connect_backoff_s:
        Bounded-backoff dialing of each backend at :meth:`start` (absorbs
        the race against a just-spawned ``fuse-serve``).
    health_interval_s / health_timeout_s / health_failures:
        :class:`HealthMonitor` cadence, per-ping deadline and the
        consecutive-failure threshold for declaring a backend dead.
    request_timeout_s:
        Per-request deadline on every routed backend call.  A timeout
        counts one failure against the backend's health streak (brownout
        detection: a backend alive enough to answer pings but too slow to
        answer requests is marked down by the same debounced threshold)
        and the call is retried under ``retry_policy``.  ``None`` (the
        default) keeps the pre-timeout behaviour: calls wait forever.
    retry_policy:
        The :class:`repro.serve.RetryPolicy` governing routed-call retries
        after a connection fault or timeout.  The default is one immediate
        failover retry, the pre-policy behaviour.
    fault_injector:
        Optional :class:`repro.serve.FaultInjector` over the router's own
        wire surfaces (``blackhole``/``reply_latency``/``corrupt_frame``/
        ``truncate_frame`` on client-facing replies).
    """

    def __init__(
        self,
        backends: Sequence[BackendSpec] = (),
        host: Optional[str] = None,
        port: int = 0,
        unix_path: Optional[str] = None,
        vnodes: int = DEFAULT_VNODES,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        allow_remote_shutdown: bool = False,
        connect_retries: int = 20,
        connect_backoff_s: float = 0.05,
        health_interval_s: float = 1.0,
        health_timeout_s: float = 1.0,
        health_failures: int = 3,
        request_timeout_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            unix_path=unix_path,
            max_frame_bytes=max_frame_bytes,
            max_in_flight=max_in_flight,
            allow_remote_shutdown=allow_remote_shutdown,
        )
        self._specs = list(backends)
        self.connect_retries = connect_retries
        self.connect_backoff_s = connect_backoff_s
        self.ring = HashRing(vnodes=vnodes)
        self.mirror = SessionMirror(capacity=MIRROR_CAPACITY)
        self.monitor = HealthMonitor(
            probe=self._ping_backend,
            interval_s=health_interval_s,
            timeout_s=health_timeout_s,
            failure_threshold=health_failures,
            on_down=self._mark_down,
        )
        self._backends: Dict[str, RouterBackend] = {}
        #: user -> backend name: where the user's state lives *now*.
        #: Routing consults this before the ring, so a mid-change ring
        #: never forwards a pinned user to a backend without its state.
        self._placement: Dict[Hashable, str] = {}
        #: backend name -> its FIFO ordering lock
        self._locks: Dict[str, _FifoLock] = {}
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive, or None")
        self.request_timeout_s = request_timeout_s
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_FORWARD_RETRY
        self.fault_injector = fault_injector
        self._admin_lock = asyncio.Lock()
        self.frames_routed = 0
        self.users_failed_over = 0
        self.users_migrated = 0
        self.backends_lost = 0
        self.request_timeouts = 0
        self.retries = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _before_listen(self) -> None:
        for spec in self._specs:
            await self._attach(spec)

    async def _after_listen(self) -> None:
        self.monitor.start()

    async def _before_unbind(self) -> None:
        await self.monitor.stop()

    async def _after_unbind(self) -> None:
        for backend in list(self._backends.values()):
            with contextlib.suppress(Exception):
                await backend.client.close()
        self._backends.clear()

    async def _attach(self, spec: BackendSpec) -> RouterBackend:
        if spec.name in self._backends:
            raise ValueError(f"backend {spec.name!r} is already attached")
        # rate_limit_retries=0: a backend's shed is *relayed* to the end
        # client (with its retry_after_ms hint) rather than absorbed by
        # router-side sleeps — the client owns the backoff decision.
        client = AsyncPoseClient(reconnect=True, rate_limit_retries=0)
        if spec.unix_path is not None:
            await client.connect_unix(
                spec.unix_path,
                retries=self.connect_retries,
                backoff_s=self.connect_backoff_s,
            )
        else:
            await client.connect_tcp(
                spec.host,
                spec.port,
                retries=self.connect_retries,
                backoff_s=self.connect_backoff_s,
            )
        backend = RouterBackend(spec, client)
        try:
            backend.hello = await client.hello()
            protocol = int(backend.hello.get("protocol", 1))
            if protocol < 2:
                raise ValueError(
                    f"backend {spec.name!r} speaks protocol v{protocol}; the "
                    "router needs v2 (pipelining, migration frames)"
                )
        except BaseException:
            await client.close()
            raise
        self._backends[spec.name] = backend
        self.ring.add(spec.name)
        self.monitor.watch(spec.name)
        return backend

    # ------------------------------------------------------------------
    # Health / failover
    # ------------------------------------------------------------------
    async def _ping_backend(self, name: str) -> bool:
        backend = self._backends.get(name)
        if backend is None or not backend.healthy:
            return False
        reply = await backend.client.request({"type": "ping"})
        if reply.get("degraded"):
            # The backend answers but advertises degradation (a shard past
            # its restart budget): treat the probe as failed so the same
            # debounced threshold marks it down and drains its users.
            return False
        return reply["type"] == "pong"

    def _mark_down(self, name: str) -> None:
        """Declare a backend dead: off the ring, users fail over lazily."""
        backend = self._backends.get(name)
        if backend is None or not backend.healthy:
            return
        backend.healthy = False
        self.backends_lost += 1
        if name in self.ring:
            self.ring.remove(name)
        # Placement pins stay: _ensure_placed detects the dead pin on the
        # user's next frame and restores from the mirror on the new owner.

    def healthy_backends(self) -> List[RouterBackend]:
        return [b for b in self._backends.values() if b.healthy]

    @property
    def backends(self) -> Dict[str, RouterBackend]:
        return dict(self._backends)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _fifo_lock(self, name: str) -> _FifoLock:
        """The FIFO ordering lock of one backend, created on first use."""
        lock = self._locks.get(name)
        if lock is None:
            lock = self._locks[name] = _FifoLock()
        return lock

    def _resolve(self, user: Hashable) -> str:
        """The backend that should serve the user's next frame, by name."""
        name = self._placement.get(user)
        if name is not None:
            backend = self._backends.get(name)
            if backend is not None and backend.healthy:
                return name
        try:
            return self.ring.node_for(user)
        except LookupError as error:
            raise NoBackendAvailable("no healthy backend on the ring") from error

    @contextlib.asynccontextmanager
    async def _user_backend(self, user: Hashable):
        """Hold the user's backend FIFO lock; yield the placed backend.

        The claim is taken synchronously at dispatch, so per-backend
        submission order equals arrival order.  If placement moved while
        the claim waited (failover, migration), the stale lock is released
        and the new one claimed synchronously — the slot relative to later
        frames is preserved.
        """
        while True:
            name = self._resolve(user)
            lock = self._fifo_lock(name)
            await lock.acquire(lock.claim())
            if self._resolve(user) == name:
                break
            lock.release()  # placement moved while waiting: re-claim
        try:
            backend = await self._ensure_placed(user, name)
            yield backend
        finally:
            lock.release()

    async def _ensure_placed(self, user: Hashable, name: str) -> RouterBackend:
        """Pin the user to ``name``, restoring their session if needed.

        Runs under ``name``'s FIFO lock.  Two cases, because
        :meth:`_resolve` keeps a user on a live pin and planned moves go
        through :meth:`_migrate`:

        * already pinned here — nothing to do;
        * pinned to a backend that is down or detached — failover: restore
          the session ring from the mirror (the adapter is lost with the
          backend).
        """
        backend = self._backends[name]
        previous = self._placement.get(user)
        if previous == name:
            return backend
        if previous is not None:
            state = self.mirror.user_state(user)
            self.users_failed_over += 1
            if state is not None:
                await backend.client.import_user(state)
        self._placement[user] = name
        return backend

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _hello_extra(self) -> dict:
        backends = sorted(self._backends)
        return {
            "role": "router",
            "backends": backends,
            "shards": sum(b.shards for b in self._backends.values()),
        }

    async def _dispatch_extra(self, message: dict) -> dict:
        kind = message["type"]
        if kind == "submit":
            return await self._submit(message)
        if kind == "metrics":
            return {"type": "metrics_report", "metrics": await self.cluster_metrics()}
        if kind == "prometheus":
            return {"type": "prometheus_report", "text": await self.cluster_prometheus()}
        if kind == "export_user":
            return await self._export_user(message)
        if kind == "import_user":
            return await self._import_user(message)
        return await super()._dispatch_extra(message)

    @staticmethod
    def _remaining_deadline(deadline_ms, start: float, loop) -> Optional[float]:
        """The deadline budget left after router queueing/retry time.

        The router spends part of a request's ``deadline_ms`` waiting on
        FIFO locks, failed attempts and retry backoff; forwarding the
        *remaining* budget lets the backend shed a request that already
        blew it instead of computing a prediction nobody is waiting for.
        Clamped to zero: the backend treats ``deadline_ms=0`` as "already
        exhausted, shed".  A client's negative, infinite or NaN budget
        never gets here — :func:`_parse_submit` refuses it as a protocol
        error.
        """
        if deadline_ms is None:
            return None
        return max(deadline_ms - (loop.time() - start) * 1000.0, 0.0)

    async def _forward(self, user: Hashable, call, *args, repair_on_retry: bool = False):
        """One routed backend call under the retry policy and timeout.

        A connection fault marks the backend down immediately (faster than
        waiting for the health monitor) and the retry goes through the new
        placement — the mirror restore inside :meth:`_ensure_placed` makes
        it land on a backend that has the user's session.  A per-request
        timeout counts one failure against the backend's health streak
        (brownout detection: the debounced threshold marks a slow-but-alive
        backend down) before the retry; attempts are spaced by the policy's
        deterministic backoff, salted per user.

        ``repair_on_retry`` is set by the frame-carrying ops: a failed
        attempt is *possibly applied* (the backend may have fed the frame
        to the user's fusion ring even though no reply arrived), so before
        re-calling, the retry resets the backend session to the mirror's
        accepted frames (:meth:`SessionMirror.repair_state`) — the fusion
        window is never fed the same frame twice.
        """
        policy = self.retry_policy
        last_error: Optional[Exception] = None
        needs_repair = False
        for attempt in range(policy.max_attempts):
            if attempt:
                self.retries += 1
                delay = policy.delay(attempt - 1, salt=repr(user))
                if delay > 0:
                    await asyncio.sleep(delay)
            async with self._user_backend(user) as backend:
                if needs_repair:
                    await self._repair_session(user, backend)
                    needs_repair = False
                try:
                    if self.request_timeout_s is not None:
                        result = await asyncio.wait_for(
                            call(backend, *args), timeout=self.request_timeout_s
                        )
                    else:
                        result = await call(backend, *args)
                except asyncio.TimeoutError:
                    self.request_timeouts += 1
                    await self.monitor.record_failure(backend.name)
                    last_error = TimeoutError(
                        f"backend {backend.name!r} did not answer within "
                        f"{self.request_timeout_s:g}s"
                    )
                    needs_repair = repair_on_retry
                    continue
                except (ConnectionError, OSError) as error:
                    self._mark_down(backend.name)
                    last_error = error
                    needs_repair = repair_on_retry
                    continue
                self.monitor.record_success(backend.name)
                backend.frames_routed += 1
                self.frames_routed += 1
                return result
        if last_error is not None:
            raise last_error
        raise NoBackendAvailable("no healthy backend on the ring")  # pragma: no cover

    async def _repair_session(self, user: Hashable, backend: RouterBackend) -> None:
        """Reset the user's backend session to the mirror before a retry.

        Best-effort and bounded by the request timeout: when the repair
        import itself fails the backend is almost certainly dead and the
        next failure marks it down — the subsequent placement restores from
        the mirror anyway.  A failed repair logs one JSON warning
        ``repair_failed`` (``user``, ``backend``, ``reason``) on the
        ``repro.serve.router`` logger and the retry proceeds.  The import
        carries no adapter (``None``), so a backend-resident adapter is left
        untouched.
        """
        state = self.mirror.repair_state(user)
        try:
            if self.request_timeout_s is not None:
                await asyncio.wait_for(
                    backend.client.import_user(state), timeout=self.request_timeout_s
                )
            else:
                await backend.client.import_user(state)
        except (asyncio.TimeoutError, ConnectionError, OSError) as error:
            entry = {
                "event": "repair_failed",
                "user": user,
                "backend": backend.name,
                "reason": f"{type(error).__name__}: {error}",
            }
            _log.warning(json.dumps(entry, default=repr))

    async def _submit(self, message: dict) -> dict:
        if self._closing.is_set():
            raise ServerClosing("router is shutting down")
        user, cloud, priority, deadline_ms = _parse_submit(message)
        loop = asyncio.get_running_loop()
        start = loop.time()

        async def call(backend, cloud):
            joints = await backend.client.submit(
                user,
                cloud,
                priority=priority,
                deadline_ms=self._remaining_deadline(deadline_ms, start, loop),
            )
            # Mirror only *accepted* frames: observing before the call would
            # leave a failed attempt's frame in the mirror, and the failover
            # restore plus the retry would then feed it to fusion twice.
            self.mirror.observe(user, cloud.points, cloud.timestamp, cloud.frame_index)
            return joints

        joints = await self._forward(user, call, cloud, repair_on_retry=True)
        return {
            "type": "prediction",
            "user": user,
            "joints": np.asarray(joints),
            "latency_ms": (loop.time() - start) * 1000.0,
        }

    async def _export_user(self, message: dict) -> dict:
        user = _parse_user(message, "export_user")
        forget = bool(message.get("forget", False))

        async def call(backend, forget):
            return await backend.client.export_user(user, forget=forget)

        state = await self._forward(user, call, forget)
        if forget:
            self._placement.pop(user, None)
            self.mirror.forget(user)
        return {"type": "user_state", "user": user, "state": state}

    async def _import_user(self, message: dict) -> dict:
        state = message.get("state")
        if not isinstance(state, dict):
            raise transport.ProtocolError("import_user requires a state mapping")
        user = _parse_user(state, "import_user")

        async def call(backend, state):
            return await backend.client.import_user(state)

        user = await self._forward(user, call, state)
        return {"type": "imported", "user": user}

    # ------------------------------------------------------------------
    # Cluster observability
    # ------------------------------------------------------------------
    def router_metrics(self) -> Dict[str, float]:
        """The router's own counters (merged into :meth:`cluster_metrics`)."""
        return {
            "router_connections_served": self.connections_served,
            "router_requests_served": self.requests_served,
            "router_protocol_errors": self.protocol_errors,
            "router_frames_routed": self.frames_routed,
            "router_users_failed_over": self.users_failed_over,
            "router_users_migrated": self.users_migrated,
            "router_backends_lost": self.backends_lost,
            "router_request_timeouts": self.request_timeouts,
            "router_retries": self.retries,
            "router_backends_healthy": len(self.healthy_backends()),
            "router_backends_total": len(self._backends),
            "router_users_placed": len(self._placement),
        }

    async def cluster_metrics(self) -> Dict[str, float]:
        """Cluster-wide snapshot: per-backend aggregates + router counters.

        Backend snapshots come over the wire as plain dicts, so the
        snapshot-tolerant :meth:`ServeMetrics.aggregate` path merges them —
        a backend missing newer counters contributes zeros.
        """
        backends = self.healthy_backends()
        snapshots = []
        for backend, outcome in zip(
            backends,
            await asyncio.gather(
                *(b.client.metrics() for b in backends), return_exceptions=True
            ),
        ):
            if isinstance(outcome, (ConnectionError, OSError)):
                self._mark_down(backend.name)
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                snapshots.append(outcome)
        report: Dict[str, float] = (
            dict(ServeMetrics.aggregate(snapshots)) if snapshots else {}
        )
        report.update(self.router_metrics())
        return report

    async def cluster_prometheus(self) -> str:
        """One exposition: every backend labelled ``instance=<name>``."""
        backends = self.healthy_backends()
        parts: List[Tuple[str, Optional[dict]]] = []
        for backend, outcome in zip(
            backends,
            await asyncio.gather(
                *(b.client.prometheus() for b in backends), return_exceptions=True
            ),
        ):
            if isinstance(outcome, (ConnectionError, OSError)):
                self._mark_down(backend.name)
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                parts.append((outcome, {"instance": backend.name}))
        parts.append((self._router_exposition(), None))
        return merge_expositions(parts)

    def _router_exposition(self) -> str:
        lines = []
        for key, value in self.router_metrics().items():
            name = f"fuse_router_{key[len('router_'):]}"
            kind = "gauge" if key.endswith(("_healthy", "_total", "_placed")) else "counter"
            if kind == "counter":
                name += "_total"
            lines.append(f"# HELP {name} Router {key[len('router_'):].replace('_', ' ')}.")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {float(value):.10g}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Topology administration
    # ------------------------------------------------------------------
    async def add_backend(self, spec: BackendSpec) -> RouterBackend:
        """Attach a backend and live-migrate the users its arcs claim."""
        async with self._admin_lock:
            backend = await self._attach(spec)  # also adds to the ring
            new_ring = self.ring
            await self._rebalance(new_ring)
            return backend

    async def remove_backend(self, name: str) -> None:
        """Detach a backend after live-migrating its users away."""
        async with self._admin_lock:
            backend = self._backends.get(name)
            if backend is None:
                raise KeyError(f"backend {name!r} is not attached")
            if len(self.healthy_backends()) <= 1 and backend.healthy and self._placement:
                raise RuntimeError(
                    "cannot remove the last healthy backend while users are placed"
                )
            if name in self.ring:
                self.ring.remove(name)
            self.monitor.unwatch(name)
            if backend.healthy:
                await self._rebalance(self.ring)
            backend.healthy = False
            self._backends.pop(name, None)
            # Any user still pinned here (rebalance skips dead sources)
            # fails over on its next frame.
            await backend.client.close()

    async def migrate_user(self, user: Hashable, target: str) -> bool:
        """Explicitly move one user to ``target`` (drain, transfer, re-pin).

        Returns False when the user is unknown or already there.
        """
        if target not in self._backends or not self._backends[target].healthy:
            raise ValueError(f"backend {target!r} is not attached and healthy")
        async with self._admin_lock:
            return await self._migrate(user, target)

    async def _rebalance(self, ring: HashRing) -> None:
        """Move every pinned user whose ring placement changed."""
        moved = [
            user
            for user, name in list(self._placement.items())
            if ring.node_for(user) != name
        ]
        for user in moved:
            await self._migrate(user, ring.node_for(user))

    async def _migrate(self, user: Hashable, target: str) -> bool:
        """Live-migrate one user under both backends' FIFO locks.

        The source lock drains the user's in-flight frames (FIFO: our
        claim waits behind them); the target lock keeps later frames
        (which re-resolve to the target) behind the import.  Locks are
        claimed in sorted-name order; dispatchers hold at most one lock,
        so the two-lock hold cannot deadlock (admin calls serialize on
        ``_admin_lock``).
        """
        source = self._placement.get(user)
        if source == target:
            return False
        names = sorted({source, target} - {None})
        locks = [self._fifo_lock(name) for name in names]
        claims = [lock.claim() for lock in locks]  # synchronous: FIFO slots
        for lock, claim in zip(locks, claims):
            await lock.acquire(claim)
        try:
            source_backend = self._backends.get(source) if source else None
            state: Optional[dict] = None
            if source_backend is not None and source_backend.healthy:
                state = await source_backend.client.export_user(user, forget=True)
            elif source is not None:
                state = self.mirror.user_state(user)  # dead source: best effort
                if state is not None:
                    self.users_failed_over += 1
            if state is not None:
                await self._backends[target].client.import_user(state)
            self._placement[user] = target
            if source is not None and source_backend is not None and source_backend.healthy:
                self.users_migrated += 1
            return state is not None
        finally:
            for lock in locks:
                lock.release()
