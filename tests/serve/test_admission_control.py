"""End-to-end admission control over the socket front-end.

Shedding happens at the front door: with ``rate_limit_per_user`` set, an
over-budget user gets a correlated ``error`` frame carrying
``retry_after_ms`` instead of a prediction, the shed shows up in the
metrics/Prometheus surfaces under the ``frontend`` tier, and
:class:`AsyncPoseClient` honours the hint with bounded backoff.  The
front-end runs on an injected :class:`FakeClock`, so token-bucket refill
is driven explicitly by the test, never by wall time.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import (
    AsyncPoseClient,
    FakeClock,
    PoseFrontend,
    PoseServer,
    SchedulingPolicy,
    ServeConfig,
    ServerError,
    TrafficClass,
)

from .conftest import HeldBackend, make_frame, wait_until


def limited_policy(rate: float = 10.0, burst: float = 2.0) -> SchedulingPolicy:
    return SchedulingPolicy(
        classes=(TrafficClass("interactive", 5.0), TrafficClass("bulk", 50.0)),
        rate_limit_per_user=rate,
        rate_limit_burst=burst,
        retry_after_ms=10.0,
    )


def make_backend(estimator, **overrides) -> PoseServer:
    defaults = dict(max_batch_size=1, gemm_block=8)
    defaults.update(overrides)
    return PoseServer(estimator, ServeConfig(**defaults))


def run_scenario(backend, scenario, *, clock=None, **client_kwargs):
    """Unix-socket front-end on a FakeClock; runs ``scenario(client, frontend, clock)``."""
    clock = clock if clock is not None else FakeClock()

    async def body(tmp_path):
        path = str(tmp_path / "fuse.sock")
        frontend = PoseFrontend(backend, unix_path=path, clock=clock)
        await frontend.start()
        try:
            async with AsyncPoseClient(**client_kwargs) as client:
                await client.connect_unix(path)
                return await scenario(client, frontend, clock)
        finally:
            await frontend.stop()

    return body


class TestShedding:
    def test_over_budget_user_gets_retry_after_error_frame(self, estimator, tmp_path):
        backend = make_backend(estimator, scheduling=limited_policy(burst=2.0))
        rng = np.random.default_rng(0)

        async def scenario(client, frontend, clock):
            for _ in range(2):  # the burst allowance
                await client.submit("alice", make_frame(rng))
            with pytest.raises(ServerError) as exc_info:
                await client.submit("alice", make_frame(rng))
            error = exc_info.value
            assert error.error == "RateLimited"
            assert error.retry_after_ms is not None and error.retry_after_ms > 0
            assert "alice" in error.detail
            # Admission is per user: bob is unaffected by alice's spree.
            assert (await client.submit("bob", make_frame(rng))).shape == (19, 3)

        asyncio.run(
            run_scenario(backend, scenario, rate_limit_retries=0)(tmp_path)
        )

    def test_tokens_refill_exactly_with_the_clock(self, estimator, tmp_path):
        backend = make_backend(estimator, scheduling=limited_policy(rate=10.0, burst=1.0))
        rng = np.random.default_rng(1)

        async def scenario(client, frontend, clock):
            await client.submit("alice", make_frame(rng))
            with pytest.raises(ServerError):
                await client.submit("alice", make_frame(rng))
            clock.advance(0.1)  # exactly one token at 10 tokens/s
            assert (await client.submit("alice", make_frame(rng))).shape == (19, 3)
            with pytest.raises(ServerError):  # and only one
                await client.submit("alice", make_frame(rng))

        asyncio.run(
            run_scenario(backend, scenario, rate_limit_retries=0)(tmp_path)
        )

    def test_client_backs_off_on_hint_and_succeeds(self, estimator, tmp_path):
        backend = make_backend(estimator, scheduling=limited_policy(burst=1.0))
        rng = np.random.default_rng(2)

        async def scenario(client, frontend, clock):
            await client.submit("alice", make_frame(rng))  # drains the bucket

            async def refill_after_first_shed():
                deadline = asyncio.get_running_loop().time() + 5.0
                while client.rate_limited_retries_performed == 0:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("client never backed off")
                    await asyncio.sleep(0.001)
                clock.advance(1.0)  # refill while the client sleeps the hint

            refill = asyncio.create_task(refill_after_first_shed())
            joints = await client.submit("alice", make_frame(rng))
            await refill
            assert joints.shape == (19, 3)
            assert client.rate_limited_retries_performed >= 1

        asyncio.run(run_scenario(backend, scenario)(tmp_path))

    def test_shed_counters_reach_metrics_and_prometheus(self, estimator, tmp_path):
        backend = make_backend(estimator, scheduling=limited_policy(burst=1.0))
        rng = np.random.default_rng(3)

        async def scenario(client, frontend, clock):
            await client.submit("alice", make_frame(rng))
            for _ in range(3):
                with pytest.raises(ServerError):
                    await client.submit("alice", make_frame(rng))
            metrics = await client.metrics()
            assert metrics["shed"] == 3
            assert frontend.admission.shed == 3
            text = await client.prometheus()
            assert 'fuse_serve_requests_shed_total{tier="frontend"} 3' in text

        asyncio.run(
            run_scenario(backend, scenario, rate_limit_retries=0)(tmp_path)
        )

    def test_enqueue_sheds_before_any_session_state_is_touched(
        self, estimator, tmp_path
    ):
        """A shed frame never reaches a shard: admission runs before the
        request joins its shard queue, so the backend never enqueues it and
        the user's fusion ring never sees it — a retry after backoff fuses
        the frame exactly once."""
        backend = make_backend(estimator, scheduling=limited_policy(burst=1.0))
        enqueued = []
        enqueue_many = backend.enqueue_many

        def spy(items):
            enqueued.extend(user for user, *_ in items)
            return enqueue_many(items)

        backend.enqueue_many = spy
        rng = np.random.default_rng(4)

        async def scenario(client, frontend, clock):
            await client.submit("alice", make_frame(rng))
            seen = backend.sessions.get_or_create("alice").frames_seen
            with pytest.raises(ServerError, match="RateLimited"):
                await client.submit("alice", make_frame(rng))
            assert backend.sessions.get_or_create("alice").frames_seen == seen
            assert enqueued == ["alice"]  # only the admitted frame

        asyncio.run(
            run_scenario(backend, scenario, rate_limit_retries=0)(tmp_path)
        )


class TestEvictionResolvesTickets:
    def test_evicted_ticket_gets_an_error_push_not_a_hang(self, estimator, tmp_path):
        """Regression: drop-oldest eviction inside one group-commit round
        must push an error frame for each evicted request — its waiter gets
        ``FrameDropped`` with the eviction reason and a retry hint, never a
        silent hang; the survivors are answered."""
        backend = HeldBackend(
            estimator,
            ServeConfig(
                max_batch_size=64,
                max_queue_depth=2,
                max_delay_ms=10_000.0,  # only the round's own flush serves the queue
            ),
        )
        rng = np.random.default_rng(5)

        async def scenario(client, frontend, clock):
            try:
                head = asyncio.ensure_future(client.submit("held", make_frame(rng)))
                await wait_until(backend.entered.is_set)
                rest = [
                    asyncio.ensure_future(client.submit(f"u{i}", make_frame(rng)))
                    for i in range(4)
                ]
                await wait_until(lambda: len(frontend._queues[0]) == 4)
            finally:
                backend.release.set()
            return await asyncio.gather(head, *rest, return_exceptions=True)

        outcomes = asyncio.run(run_scenario(backend, scenario)(tmp_path))
        # u0/u1 were evicted by u2/u3 inside the round
        for error in outcomes[1:3]:
            assert isinstance(error, ServerError)
            assert error.error == "FrameDropped"
            assert "evicted by a newer arrival under drop_oldest" in error.detail
            assert error.retry_after_ms is not None
        for joints in (outcomes[0], *outcomes[3:]):
            assert joints.shape == (19, 3)


class TestPriorityThreading:
    def test_priority_reaches_the_backend_class_counters(self, estimator, tmp_path):
        backend = make_backend(estimator)
        rng = np.random.default_rng(7)

        async def scenario(client, frontend, clock):
            await client.submit("alice", make_frame(rng), priority="bulk")
            await client.submit("bob", make_frame(rng), priority="interactive")
            await client.submit("carol", make_frame(rng))  # default class
            metrics = await client.metrics()
            assert metrics["class_bulk_completed"] == 1
            assert metrics["class_interactive_completed"] == 2
            assert metrics["shed"] == 0

        asyncio.run(run_scenario(backend, scenario)(tmp_path))

    def test_invalid_priority_is_a_clean_error_frame(self, estimator, tmp_path):
        backend = make_backend(estimator)
        rng = np.random.default_rng(8)

        async def scenario(client, frontend, clock):
            with pytest.raises(ServerError):
                await client.submit("alice", make_frame(rng), priority="premium")
            assert await client.ping()  # the connection survived

        asyncio.run(run_scenario(backend, scenario)(tmp_path))
