"""Open-loop load generator for the socket workload.

One asyncio loop multiplexes simulated users over a few connections.  Each
user sends one ``AsyncPoseClient.submit`` per frame on a fixed 10 Hz
schedule with a seeded phase, whether or not earlier frames were answered,
so an overloaded server builds a queue instead of slowing the load.  A
request is timed from when it was due, which charges a stall to every
request it delays; how late the generator itself sent is recorded as lag.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve import AsyncPoseClient, ServerError

from inputs import FRAME_HZ
from tracing import Tracer

#: the shipped interactive class budget a served frame must meet
LATENCY_LIMIT_MS = 50.0
MAX_ERROR_RATE = 0.01
#: completions must keep up with at least this share of the offered rate
MIN_KEEP_UP = 0.95
#: a request not answered within this is abandoned and counted as a timeout
TIMEOUT_S = 2.0
#: per-user frame-clock error, and per-frame send jitter (shares of the
#: 100 ms period; the jitter is below half a period, so a user's frames
#: never overtake each other)
CLOCK_SKEW = 0.05
JITTER = 0.2

CAUSES = ("dropped", "rate_limited", "timeout", "connection", "server_error")


@dataclass
class Rung:
    """Everything one offered rate produced."""

    offered_fps: float
    users: int
    #: frames sent over the span from the first to the last due time
    scheduled_fps: float = 0.0
    attempted: int = 0
    succeeded: int = 0
    failures: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(CAUSES, 0))
    latency_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    achieved_fps: float = 0.0
    rate_limited_retries: int = 0
    #: (user, frame index) -> prediction, successes only
    replies: Dict[tuple, np.ndarray] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency percentile with every failure counted as ``TIMEOUT_S``
        (it missed any limit)."""
        samples = self.latency_ms + [TIMEOUT_S * 1000.0] * self.failed
        return float(np.percentile(samples, q)) if samples else float("nan")

    @property
    def keeps_up(self) -> bool:
        return self.achieved_fps >= MIN_KEEP_UP * self.scheduled_fps

    @property
    def sustained(self) -> bool:
        return (
            self.latency_percentile(95) <= LATENCY_LIMIT_MS
            and self.error_rate <= MAX_ERROR_RATE
            and self.keeps_up
        )

    def summary(self) -> dict:
        return {
            "offered_fps": self.offered_fps,
            "scheduled_fps": self.scheduled_fps,
            "users": self.users,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "failures": dict(self.failures),
            "error_rate": self.error_rate,
            "achieved_fps": self.achieved_fps,
            "latency_p50_ms": self.latency_percentile(50),
            "latency_p95_ms": self.latency_percentile(95),
            "latency_samples": self.attempted,
            "lag_p95_ms": float(np.percentile(self.lag_ms, 95)) if self.lag_ms else 0.0,
            "rate_limited_retries": self.rate_limited_retries,
            "keeps_up": self.keeps_up,
            "sustained": self.sustained,
        }


async def connect(host: str, port: int, connections: int) -> List[AsyncPoseClient]:
    clients = []
    for _ in range(connections):
        client = AsyncPoseClient()
        await client.connect_tcp(host, port)
        await client.hello()
        clients.append(client)
    return clients


async def run_rung(
    clients: Sequence[AsyncPoseClient],
    offered_fps: float,
    streams: Dict[str, Sequence],
    dues: Dict[str, np.ndarray],
    tracer: Optional[Tracer] = None,
) -> Rung:
    """Send every frame at its due time (see :func:`rung_plan`), whether or
    not earlier frames were answered; wait for all replies."""
    users = list(streams)
    rung = Rung(offered_fps=offered_fps, users=len(users))
    schedule = sorted(
        (float(dues[user][index]), position, index)
        for position, user in enumerate(users)
        for index in range(len(streams[user]))
    )
    retries_before = sum(client.rate_limited_retries_performed for client in clients)
    loop = asyncio.get_running_loop()
    origin = loop.time() + 0.05
    completions: List[float] = []

    async def one(position: int, index: int, due: float) -> None:
        user = users[position]
        client = clients[position % len(clients)]
        submit = client.submit(user, streams[user][index].cloud)
        if tracer is not None:
            submit = tracer.call_async("frontend.submit", "frontend", submit, trace_id=(user, index))
        try:
            joints = await asyncio.wait_for(submit, TIMEOUT_S)
        except asyncio.TimeoutError:
            rung.failures["timeout"] += 1
            return
        except ServerError as error:
            if error.error == "RateLimited":
                rung.failures["rate_limited"] += 1
            elif error.error in ("FrameDropped", "QueueFull"):
                rung.failures["dropped"] += 1
            else:
                rung.failures["server_error"] += 1
            return
        except (ConnectionError, OSError):
            rung.failures["connection"] += 1
            return
        done = loop.time()
        completions.append(done)
        rung.succeeded += 1
        rung.latency_ms.append((done - due) * 1000.0)
        rung.replies[(user, index)] = joints

    tasks = []
    for offset, position, index in schedule:
        due = origin + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        rung.lag_ms.append(max(0.0, loop.time() - due) * 1000.0)
        tasks.append(asyncio.ensure_future(one(position, index, due)))
    rung.attempted = len(tasks)
    await asyncio.gather(*tasks)
    first_due = origin + schedule[0][0]
    rung.scheduled_fps = rung.attempted / max(schedule[-1][0] - schedule[0][0], 1e-9)
    span = (max(completions) if completions else loop.time()) - first_due
    rung.achieved_fps = rung.succeeded / span if span > 0 else 0.0
    rung.rate_limited_retries = (
        sum(client.rate_limited_retries_performed for client in clients) - retries_before
    )
    return rung


def rung_plan(
    rng: np.random.Generator, offered_fps: float, prefix: str, frames: int
) -> Dict[str, np.ndarray]:
    """User ids with the due time of each of their frames (seconds from the
    rung's start) for one rung.

    Each simulated radar keeps its own clock, 100 ms off by up to
    ``CLOCK_SKEW`` (the skews average out, so the users together offer
    ``offered_fps``), and each frame leaves up to ``JITTER`` of a period
    early or late.  Over a rung the users' relative phases therefore sweep
    through every alignment instead of replaying one seed-dependent
    collision pattern.
    """
    count = max(1, int(round(offered_fps / FRAME_HZ)))
    period = 1.0 / FRAME_HZ
    phases = rng.uniform(0.0, period, count)
    skews = rng.uniform(-CLOCK_SKEW, CLOCK_SKEW, count)
    skews -= skews.mean()
    ticks = np.arange(frames)
    return {
        f"{prefix}-u{k:04d}": phases[k]
        + period * (1.0 + skews[k]) * ticks
        + period * rng.uniform(-JITTER, JITTER, frames)
        + period * JITTER
        for k in range(count)
    }
