"""Liveness monitoring for routed backends.

:class:`HealthMonitor` periodically probes a set of named targets with an
async callable — the router probes each backend with the protocol-v2
``ping`` frame — and declares a target *down* only after
``failure_threshold`` consecutive failures (one lost ping must not trigger
a failover that throws away the backend's adapters).  A down target that
answers again is declared *up*; what to do with it (the router does **not**
automatically re-add it to the ring — its state is stale) is the
callback's decision.

The monitor is policy-free: it never touches the ring or the backends, it
only calls ``on_down`` / ``on_up``.  Callbacks may be plain functions or
coroutine functions.

Each transition logs one JSON warning on the ``repro.serve.health`` logger:
``target_down`` with the ``target``, its ``failures`` streak and the
``reason`` of the failure that crossed the threshold (the exception's type
and message, ``timeout``, ``falsy reply``, or ``request_failure`` for a
:meth:`HealthMonitor.record_failure` streak), and ``target_up`` when a down
target answers a probe again.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import json
import logging
from typing import Awaitable, Callable, Dict, List, Optional, Set

__all__ = ["HealthMonitor"]

_log = logging.getLogger(__name__)


class HealthMonitor:
    """Periodic liveness probing with consecutive-failure debouncing.

    Parameters
    ----------
    probe:
        ``async (name) -> truthy`` — one liveness check of one target.  A
        raise, a falsy return, or exceeding ``timeout_s`` counts as one
        failure.
    interval_s:
        Delay between probe rounds.
    timeout_s:
        Per-probe deadline (a hung backend must not stall the round).
    failure_threshold:
        Consecutive failures before a target is declared down.
    on_down / on_up:
        Callbacks invoked with the target name on a state transition.
    """

    def __init__(
        self,
        probe: Callable[[str], Awaitable],
        interval_s: float = 1.0,
        timeout_s: float = 1.0,
        failure_threshold: int = 3,
        on_down: Optional[Callable[[str], object]] = None,
        on_up: Optional[Callable[[str], object]] = None,
    ) -> None:
        if interval_s <= 0 or timeout_s <= 0:
            raise ValueError("interval_s and timeout_s must be positive")
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self._probe = probe
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self.failure_threshold = failure_threshold
        self._on_down = on_down
        self._on_up = on_up
        self._failures: Dict[str, int] = {}
        self._down: Set[str] = set()
        self._task: Optional[asyncio.Task] = None
        self.rounds = 0

    # ------------------------------------------------------------------
    # Target set
    # ------------------------------------------------------------------
    def watch(self, name: str) -> None:
        """Start probing ``name`` (idempotent)."""
        self._failures.setdefault(name, 0)

    def unwatch(self, name: str) -> None:
        """Stop probing ``name`` and forget its state."""
        self._failures.pop(name, None)
        self._down.discard(name)

    @property
    def targets(self) -> List[str]:
        return sorted(self._failures)

    @property
    def down(self) -> List[str]:
        """Targets currently declared down, sorted by name."""
        return sorted(self._down)

    def is_down(self, name: str) -> bool:
        return name in self._down

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    async def check_now(self) -> Dict[str, bool]:
        """Probe every watched target once, concurrently.

        Returns ``{name: probe_ok}`` for this round (not the debounced
        up/down state — that is :meth:`is_down`).
        """
        names = list(self._failures)
        failures = await asyncio.gather(
            *(self._probe_one(name) for name in names)
        )
        self.rounds += 1
        results: Dict[str, bool] = {}
        for name, reason in zip(names, failures):
            if name not in self._failures:
                continue  # unwatched while the probe was in flight
            results[name] = reason is None
            if reason is None:
                self._failures[name] = 0
                if name in self._down:
                    self._down.discard(name)
                    _log.warning(json.dumps({"event": "target_up", "target": name}))
                    await self._notify(self._on_up, name)
            else:
                await self._count_failure(name, reason)
        return results

    # ------------------------------------------------------------------
    # External failure feed (brownout detection)
    # ------------------------------------------------------------------
    async def record_failure(self, name: str) -> bool:
        """Count one externally observed failure against ``name``'s streak.

        Request-path signals — a per-request timeout at the router, a
        connection reset mid-call — feed the *same* consecutive-failure
        streak the probe loop maintains, so a browned-out backend (alive
        enough to answer pings, too slow to answer requests) is marked down
        by the same debounced threshold instead of stalling every pinned
        user forever.  Unwatched names are ignored.  Returns ``True`` when
        this failure crossed the threshold and ``on_down`` fired.
        """
        if name not in self._failures:
            return False
        return await self._count_failure(name, "request_failure")

    def record_success(self, name: str) -> None:
        """Reset ``name``'s failure streak after a successful request.

        Only the streak is reset — a target already declared down stays
        down until a *probe* succeeds (the probe loop owns up-transitions,
        because a single lucky request must not re-admit a stale backend).
        """
        if name in self._failures and name not in self._down:
            self._failures[name] = 0

    async def _count_failure(self, name: str, reason: str) -> bool:
        """Extend ``name``'s streak; declare it down when the streak crosses
        the threshold.  Returns ``True`` when this failure did."""
        self._failures[name] += 1
        if self._failures[name] < self.failure_threshold or name in self._down:
            return False
        self._down.add(name)
        entry = {
            "event": "target_down",
            "target": name,
            "failures": self._failures[name],
            "reason": reason,
        }
        _log.warning(json.dumps(entry))
        await self._notify(self._on_down, name)
        return True

    async def _probe_one(self, name: str) -> Optional[str]:
        """One probe of ``name``: ``None`` on success, else why it failed."""
        try:
            ok = bool(await asyncio.wait_for(self._probe(name), timeout=self.timeout_s))
        except asyncio.TimeoutError:
            return "timeout"
        except Exception as error:
            return f"{type(error).__name__}: {error}"
        return None if ok else "falsy reply"

    @staticmethod
    async def _notify(callback, name: str) -> None:
        if callback is None:
            return
        result = callback(name)
        if inspect.isawaitable(result):
            await result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background probing loop (requires a running loop)."""
        if self._task is not None:
            raise RuntimeError("monitor is already running")
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._task
        self._task = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            await self.check_now()
