"""Request fields the cluster tier cannot honour are refused at the wire.

A ``user`` must be a str or an int (never a bool): those are the only ids
a user's state keeps through ``export_user`` → ``import_user`` and the
router's failover restore.  A ``deadline_ms`` must be finite and
non-negative: ``0`` is an already-spent budget the backend sheds, anything
below it (or NaN) is a client error.  Both tiers — the front-end and the
router — answer such a request with a ``ProtocolError`` before admission
control or any queue, so nothing reaches a backend.
"""

from __future__ import annotations

import asyncio
import contextlib
import math

import numpy as np
import pytest

from repro.serve import (
    AsyncPoseClient,
    BackendSpec,
    PoseFrontend,
    PoseRouter,
    PoseServer,
    SchedulingPolicy,
    ServeConfig,
    ServerError,
)

from .conftest import make_frame

#: rate limiting on, so a request that reached admission control would
#: leave a token bucket behind
CONFIG = ServeConfig(
    max_batch_size=4, scheduling=SchedulingPolicy(rate_limit_per_user=1000.0)
)

BAD_USERS = [1.5, True, False, None, ["alice"], {"id": 1}]
BAD_DEADLINES = [-1.0, -1e-9, math.nan, math.inf, -math.inf]


def _frame_payload():
    frame = make_frame(np.random.default_rng(0))
    return {"points": frame.points, "timestamp": 0.0, "frame_index": 0}


REFUSED = (
    [
        pytest.param({"type": "submit", "user": user}, id=f"submit-user-{user!r}")
        for user in BAD_USERS
    ]
    + [
        pytest.param({"type": "export_user", "user": user}, id=f"export-user-{user!r}")
        for user in BAD_USERS
    ]
    + [
        pytest.param(
            {"type": "submit", "user": "alice", "deadline_ms": deadline},
            id=f"submit-deadline-{deadline!r}",
        )
        for deadline in BAD_DEADLINES
    ]
)


def run_tier(estimator, tmp_path, tier: str, scenario):
    """Serve one :class:`PoseServer` behind the given tier (``"frontend"``,
    or ``"router"`` over a front-end) and run ``scenario(client)``; then
    check that no refused request reached admission control or a queue."""
    backend = PoseServer(estimator, CONFIG)

    async def body():
        backend_path = str(tmp_path / "b0.sock")
        frontend = PoseFrontend(backend, unix_path=backend_path)
        await frontend.start()
        router = None
        path = backend_path
        try:
            if tier == "router":
                path = str(tmp_path / "router.sock")
                router = PoseRouter(
                    [BackendSpec(name="b0", unix_path=backend_path)],
                    unix_path=path,
                    connect_retries=3,
                    connect_backoff_s=0.01,
                )
                await router.start()
            async with AsyncPoseClient() as client:
                await client.connect_unix(path)
                await scenario(client)
        finally:
            if router is not None:
                await router.stop()
            with contextlib.suppress(Exception):
                await frontend.stop()
        return frontend, router

    return backend, *asyncio.run(body())


@pytest.mark.parametrize("tier", ["frontend", "router"])
class TestRefusedAtTheWire:
    @pytest.mark.parametrize("message", REFUSED)
    def test_refused_before_any_queue(self, estimator, tmp_path, tier, message):
        if message["type"] == "submit":
            message = {**message, "frame": _frame_payload()}

        async def scenario(client):
            with pytest.raises(ServerError) as caught:
                await client.request(message)
            assert caught.value.error == "ProtocolError"
            assert await client.ping()  # the connection stays usable

        backend, frontend, router = run_tier(estimator, tmp_path, tier, scenario)
        assert backend.metrics.submitted == 0
        assert len(backend.sessions) == 0
        assert not frontend._buckets  # admission control never ran
        if router is not None:
            assert router.frames_routed == 0
            assert router._placement == {}
            assert len(router.mirror) == 0

    def test_the_accepted_edges_still_serve(self, estimator, tmp_path, tier):
        """An int id and a finite budget are served; a zero budget is the
        backend's deadline shed, not a protocol error."""
        frame = make_frame(np.random.default_rng(1))

        async def scenario(client):
            assert (await client.submit(7, frame)).shape[-1] == 3
            await client.submit("alice", frame, deadline_ms=60_000.0)
            with pytest.raises(ServerError, match="deadline exhausted"):
                await client.submit("alice", frame, deadline_ms=0)

        backend, _, _ = run_tier(estimator, tmp_path, tier, scenario)
        assert backend.metrics.submitted == 2
