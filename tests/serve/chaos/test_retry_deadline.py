"""Deadline shedding, brownout accounting, and the unified dial policy.

The deadline contract: a request whose ``deadline_ms`` budget is already
spent when it reaches a server is shed *before* admission — no session
observe, no fusion-ring trace, no computation — and counted.  The router
decrements the budget by its own elapsed time, clamped at zero, so a
blown budget arrives as exactly ``0``.  Brownout detection feeds
request-path timeouts into the health monitor's debounced streak.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import (
    AsyncPoseClient,
    FrameDropped,
    HealthMonitor,
    PoseFrontend,
    PoseRouter,
    PoseServer,
    ProcessShardedPoseServer,
    RetryPolicy,
    ServeConfig,
    ServerError,
)

from ..conftest import make_frame

LAZY = ServeConfig(max_batch_size=8, max_delay_ms=10_000.0)


class TestDeadlineShedding:
    def test_spent_budget_is_shed_before_admission(self, estimator):
        server = PoseServer(estimator, LAZY)
        frame = make_frame(np.random.default_rng(0))
        with pytest.raises(FrameDropped, match="deadline exhausted"):
            server.enqueue("alice", frame, deadline_ms=0.0)
        assert server.metrics.deadline_shed == 1
        # shed strictly before admission: no session, no queued request
        assert len(server.sessions) == 0
        assert server.pending == 0

    def test_negative_deadline_is_still_a_caller_error(self, estimator):
        server = PoseServer(estimator, LAZY)
        with pytest.raises(ValueError, match="non-negative"):
            server.enqueue("alice", make_frame(np.random.default_rng(1)), deadline_ms=-5)
        assert server.metrics.deadline_shed == 0

    def test_nan_deadline_is_a_caller_error(self, estimator):
        """A NaN budget compares false against every bound, so it would
        never shed and never count a miss; it is refused like a negative."""
        server = PoseServer(estimator, LAZY)
        with pytest.raises(ValueError, match="non-negative"):
            server.enqueue(
                "alice", make_frame(np.random.default_rng(1)), deadline_ms=float("nan")
            )
        assert len(server.sessions) == 0
        assert server.pending == 0

    def test_live_budget_serves_normally(self, estimator):
        server = PoseServer(estimator, LAZY)
        handle = server.enqueue(
            "alice", make_frame(np.random.default_rng(2)), deadline_ms=60_000.0
        )
        assert handle.result(flush=True).shape == (19, 3)
        assert server.metrics.deadline_shed == 0

    def test_shed_is_counted_in_the_prometheus_exposition(self, estimator):
        server = PoseServer(estimator, LAZY)
        with pytest.raises(FrameDropped):
            server.enqueue("alice", make_frame(np.random.default_rng(3)), deadline_ms=0)
        assert "fuse_serve_deadline_shed_total 1" in server.metrics.to_prometheus()


    def test_spent_budget_over_the_socket_is_a_shed_not_a_backend_fault(
        self, estimator, tmp_path
    ):
        """The router forwards a blown budget as ``deadline_ms=0``; a
        process-sharded backend must answer it as the ``FrameDropped`` shed
        it is — not as a remote fault counted in ``protocol_errors``."""

        async def scenario(server):
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(server, unix_path=path)
            await frontend.start()
            try:
                async with AsyncPoseClient() as client:
                    await client.connect_unix(path)
                    frame = make_frame(np.random.default_rng(4))
                    with pytest.raises(ServerError) as shed:
                        await client.submit("alice", frame, deadline_ms=0)
                    joints = await client.submit("alice", frame, deadline_ms=60_000.0)
                return shed.value, joints, frontend.protocol_errors
            finally:
                await frontend.stop()

        with ProcessShardedPoseServer(estimator, num_shards=1, config=LAZY) as server:
            shed, joints, protocol_errors = asyncio.run(scenario(server))
            assert server.metrics_snapshot()["deadline_shed"] == 1
        assert shed.error == "FrameDropped"
        assert "deadline exhausted" in shed.detail
        assert protocol_errors == 0
        assert joints.shape == (19, 3)


class _FrozenLoop:
    """A stand-in event loop whose clock the test owns."""

    def __init__(self, now: float) -> None:
        self.now = now

    def time(self) -> float:
        return self.now


class TestDeadlinePropagation:
    def test_remaining_deadline_decrements_by_elapsed_time(self):
        loop = _FrozenLoop(10.0)
        assert PoseRouter._remaining_deadline(None, 10.0, loop) is None
        assert PoseRouter._remaining_deadline(500.0, 10.0, loop) == 500.0
        loop.now = 10.2  # 200ms spent queueing/retrying inside the router
        assert PoseRouter._remaining_deadline(500.0, 10.0, loop) == pytest.approx(300.0)

    def test_blown_budget_clamps_to_zero_not_negative(self):
        loop = _FrozenLoop(11.0)  # a full second late on a 100ms budget
        assert PoseRouter._remaining_deadline(100.0, 10.0, loop) == 0.0


class TestBrownoutStreaks:
    def run(self, coro):
        return asyncio.run(coro)

    def test_request_timeouts_feed_the_probe_streak(self):
        downs: list = []

        async def scenario():
            monitor = HealthMonitor(
                probe=lambda name: asyncio.sleep(0, result=True),
                failure_threshold=3,
                on_down=downs.append,
            )
            monitor.watch("b0")
            assert not await monitor.record_failure("b0")
            assert not await monitor.record_failure("b0")
            assert await monitor.record_failure("b0")  # third crosses
            assert monitor.is_down("b0")

        self.run(scenario())
        assert downs == ["b0"]

    def test_success_resets_the_streak_but_never_undowns(self):
        async def scenario():
            monitor = HealthMonitor(
                probe=lambda name: asyncio.sleep(0, result=True), failure_threshold=2
            )
            monitor.watch("b0")
            await monitor.record_failure("b0")
            monitor.record_success("b0")  # streak back to zero
            await monitor.record_failure("b0")
            assert not monitor.is_down("b0")
            await monitor.record_failure("b0")
            assert monitor.is_down("b0")
            monitor.record_success("b0")  # a lucky request must not re-admit
            assert monitor.is_down("b0")

        self.run(scenario())

    def test_unwatched_names_are_ignored(self):
        async def scenario():
            monitor = HealthMonitor(
                probe=lambda name: asyncio.sleep(0, result=True), failure_threshold=1
            )
            assert not await monitor.record_failure("ghost")
            assert not monitor.is_down("ghost")

        self.run(scenario())


class TestUnifiedDialPolicy:
    def test_legacy_knobs_translate_to_a_retry_policy(self):
        policy = AsyncPoseClient._dial_policy_from(3, 0.05, 1.0, None)
        assert policy == RetryPolicy(max_attempts=4, base_delay_s=0.05, max_delay_s=1.0)
        # the legacy schedule was backoff_s doubled per attempt, capped
        assert policy.delays() == [0.05, 0.1, 0.2]

    def test_explicit_policy_wins_over_knobs(self):
        custom = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)
        assert AsyncPoseClient._dial_policy_from(9, 9.0, 9.0, custom) is custom

    def test_legacy_knob_validation_survives(self):
        with pytest.raises(ValueError, match="retries"):
            AsyncPoseClient._dial_policy_from(-1, 0.05, 1.0, None)
        with pytest.raises(ValueError, match="positive"):
            AsyncPoseClient._dial_policy_from(0, 0.0, 1.0, None)

    def test_connect_error_reports_the_attempt_budget(self, tmp_path):
        async def scenario():
            client = AsyncPoseClient()
            with pytest.raises(ConnectionError, match="after 2 attempt"):
                await client.connect_unix(
                    str(tmp_path / "nobody-home.sock"),
                    retry_policy=RetryPolicy(
                        max_attempts=2, base_delay_s=0.0, max_delay_s=0.0
                    ),
                )

        asyncio.run(scenario())

    def test_router_default_forward_retry_is_one_immediate_retry(self):
        from repro.serve.router import DEFAULT_FORWARD_RETRY

        assert DEFAULT_FORWARD_RETRY.max_attempts == 2
        assert DEFAULT_FORWARD_RETRY.delays() == [0.0]
