"""Protocol v2 front-end tests: pipelining, group commit, request ids.

The serving semantics are pinned by the server/shard suites; these tests
cover what the v2 socket layer owns: out-of-order reply correlation,
duplicate/unknown/missing request ids, the per-shard group commit (remote
traffic forms micro-batches, in arrival order, and every waiter resolves
exactly once), bounded in-flight windows, connect retry — and the
acceptance property: a replay over the pipelined path is bitwise identical
to in-process serving.
"""

from __future__ import annotations

import asyncio
import gc
import json

import numpy as np
import pytest

from repro.serve import (
    AsyncPoseClient,
    FaultPlan,
    FaultRule,
    PoseFrontend,
    PoseServer,
    ProcessShardedPoseServer,
    ServeConfig,
    ServerClosing,
    ServerError,
    user_streams_from_dataset,
)
from repro.serve.transport import CODEC_JSON, read_message, write_message

from .conftest import HeldBackend, make_frame, wait_until

#: a deadline long enough that only batch-full/explicit flushes fire during
#: a test (keeps batch formation deterministic on slow CI containers)
LAZY = ServeConfig(max_batch_size=8, max_delay_ms=10_000.0)


def run_scenario(backend, scenario, tmp_path, **frontend_kwargs):
    """Start a Unix-socket front-end, run ``scenario(client, frontend)``."""

    async def body():
        path = str(tmp_path / "fuse.sock")
        frontend = PoseFrontend(backend, unix_path=path, **frontend_kwargs)
        await frontend.start()
        try:
            async with AsyncPoseClient() as client:
                await client.connect_unix(path)
                return await scenario(client, frontend)
        finally:
            await frontend.stop()

    return asyncio.run(body())


@pytest.fixture()
def backend(estimator):
    return PoseServer(estimator, LAZY)


class TestCorrelation:
    def test_pipelined_requests_resolve_out_of_order(self, backend, tmp_path):
        """A slow submit and fast pings in flight together: the pings'
        replies overtake the submit's, and every future still resolves to
        its own request via the id."""

        async def scenario(client, frontend):
            frame = make_frame(np.random.default_rng(0))
            submit = asyncio.ensure_future(client.submit("alice", frame))
            pongs = await asyncio.gather(*(client.ping() for _ in range(4)))
            assert pongs == [True] * 4
            joints = await submit
            assert joints.shape == (19, 3)

        run_scenario(backend, scenario, tmp_path)

    def test_duplicate_inflight_id_rejected(self, backend, tmp_path):
        async def scenario(client, frontend):
            # Two raw requests with the same id, no reads in between: the
            # second must be answered with an error carrying that id.
            writer = client._writer
            reader = client._reader
            client._reader_task.cancel()
            await asyncio.sleep(0)
            slow = {
                "type": "submit",
                "user": "bob",
                "id": 7,
                "frame": {"points": make_frame(np.random.default_rng(1)).points},
            }
            await write_message(writer, slow, CODEC_JSON)
            await write_message(writer, {"type": "ping", "id": 7}, CODEC_JSON)
            replies = [(await read_message(reader))[0] for _ in range(2)]
            by_type = {reply["type"]: reply for reply in replies}
            assert set(by_type) == {"error", "prediction"}
            assert by_type["error"]["id"] == 7
            assert "already in flight" in by_type["error"]["detail"]

        run_scenario(backend, scenario, tmp_path)

    def test_unmatched_push_is_counted_not_fatal(self):
        """A frame the client never asked for — a stray prediction, an
        id-less reply — is counted and dropped; the read loop goes on."""
        client = AsyncPoseClient()
        client._route({"type": "prediction", "id": 999, "joints": 1})
        client._route({"type": "pong"})  # id-less reply with nothing pending
        assert client.unmatched_replies == 2

    def test_uncorrelated_error_fails_every_pending_request(self):
        """Without a hello, an error frame carrying no id fails every
        outstanding request — it is never pinned on one."""

        async def body():
            client = AsyncPoseClient()
            loop = asyncio.get_running_loop()
            pending = [loop.create_future(), loop.create_future()]
            client._pending.update(enumerate(pending, start=1))
            client._route({"type": "error", "error": "ProtocolError", "detail": "bad frame"})
            for future in pending:
                assert type(future.exception()) is RuntimeError
                assert "ProtocolError: bad frame" in str(future.exception())
            assert not client._pending and client.unmatched_replies == 0

        asyncio.run(body())

    def test_non_scalar_request_id_rejected(self, backend, tmp_path):
        async def scenario(client, frontend):
            writer, reader = client._writer, client._reader
            client._reader_task.cancel()
            await asyncio.sleep(0)
            await write_message(writer, {"type": "ping", "id": [1, 2]}, CODEC_JSON)
            reply = (await read_message(reader))[0]
            assert reply["type"] == "error"
            assert "int or str" in reply["detail"]

        run_scenario(backend, scenario, tmp_path)


class TestV1Downgrade:
    """There is no downgrade: a request without an id (the retired v1
    discipline) is refused with an uncorrelated ``ProtocolError`` and the
    connection keeps reading."""

    def test_idless_request_gets_uncorrelated_error_and_connection_survives(
        self, backend, tmp_path
    ):
        async def scenario(client, frontend):
            writer, reader = client._writer, client._reader
            client._reader_task.cancel()
            await asyncio.sleep(0)
            await write_message(writer, {"type": "ping"}, CODEC_JSON)
            refused = (await read_message(reader))[0]
            assert refused["type"] == "error" and "id" not in refused
            assert refused["error"] == "ProtocolError"
            assert "requires a request id" in refused["detail"]
            await write_message(writer, {"type": "ping", "id": 1}, CODEC_JSON)
            assert (await read_message(reader))[0] == {"type": "pong", "id": 1}

        run_scenario(backend, scenario, tmp_path)

    def test_frontend_accepts_only_protocol_2(self, backend):
        frontend = PoseFrontend(backend, unix_path="unused", protocol=2)
        assert not hasattr(frontend, "protocol")
        for protocol in (1, 3):
            with pytest.raises(ValueError, match="protocol must be 2"):
                PoseFrontend(backend, unix_path="unused", protocol=protocol)

    def test_idless_enqueue_rejected(self, backend, tmp_path):
        """The retired streaming ``enqueue`` is no message type any more:
        a frame carrying one is a protocol fault, answered with an error
        before the connection closes."""

        async def scenario(client, frontend):
            writer, reader = client._writer, client._reader
            client._reader_task.cancel()
            await asyncio.sleep(0)
            frame = {"points": make_frame(np.random.default_rng(2)).points.tolist()}
            payload = json.dumps({"type": "enqueue", "user": "carol", "frame": frame})
            # framed by hand: the encoder itself refuses unknown types
            writer.write(b"J" + len(payload).to_bytes(4, "big") + payload.encode())
            await writer.drain()
            reply = (await read_message(reader))[0]
            assert reply["type"] == "error"
            assert "unknown message type 'enqueue'" in reply["detail"]
            assert await reader.read() == b""  # the server hung up
            assert frontend.protocol_errors == 1

        run_scenario(backend, scenario, tmp_path)


class TestStreaming:
    """Clients streaming frames — many submits in flight at once, on one
    connection or several — and what the group commit makes of them.
    :class:`HeldBackend` holds the first round so the test decides exactly
    what queues up behind it."""

    def test_remote_enqueues_form_micro_batches(self, estimator, tmp_path):
        """The point of the group commit: concurrent remote clients' frames
        are enqueued together and fill the cross-user micro-batcher instead
        of flushing singletons, and each user's replies still equal a
        sequential in-process replay bitwise."""
        backend = HeldBackend(estimator, LAZY)
        rng = np.random.default_rng(12)
        held = make_frame(rng)
        streams = {f"user-{i}": [make_frame(rng) for _ in range(4)] for i in range(4)}
        reference = PoseServer(estimator, LAZY)
        expected = {
            user: [reference.submit(user, frame) for frame in frames]
            for user, frames in streams.items()
        }

        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path)
            await frontend.start()
            clients = [AsyncPoseClient() for _ in range(len(streams) + 1)]
            try:
                for client in clients:
                    await client.connect_unix(path)
                try:
                    head = asyncio.ensure_future(clients[0].submit("held", held))
                    await wait_until(backend.entered.is_set)
                    tails = [
                        asyncio.ensure_future(
                            client.submit_many(user, frames, max_in_flight=len(frames))
                        )
                        for client, (user, frames) in zip(clients[1:], streams.items())
                    ]
                    await wait_until(lambda: len(frontend._queues[0]) == 16)
                finally:
                    backend.release.set()
                await head
                return dict(zip(streams, await asyncio.gather(*tails)))
            finally:
                for client in clients:
                    await client.close()
                await frontend.stop()

        served = asyncio.run(body())
        assert [len(call) for call in backend.calls] == [1, 16]
        assert backend.metrics.max_batch_seen == 8  # real cross-user batches
        for user, replies in served.items():
            for got, want in zip(replies, expected[user], strict=True):
                np.testing.assert_array_equal(got, want)

    def test_stream_settles_every_ticket_under_drops(self, estimator, tmp_path):
        """Dropped frames mid-stream must not abandon later predictions:
        under ``drop_oldest`` every in-flight request of one user's stream
        settles — the evicted head with ``FrameDropped``, the surviving tail
        with the bits an in-process server gives under the same eviction."""
        config = ServeConfig(max_batch_size=64, max_queue_depth=2, max_delay_ms=10_000.0)
        backend = HeldBackend(estimator, config)
        rng = np.random.default_rng(13)
        held = make_frame(rng)
        frames = [make_frame(rng) for _ in range(5)]
        reference = PoseServer(estimator, config)
        reference.submit("held", held)
        handles = reference.enqueue_many([("kate", frame) for frame in frames])
        reference.flush()
        expected = [handle.result() for handle in handles[3:]]

        async def scenario(client, frontend):
            try:
                head = asyncio.ensure_future(client.submit("held", held))
                await wait_until(backend.entered.is_set)
                stream = [asyncio.ensure_future(client.submit("kate", frame)) for frame in frames]
                await wait_until(lambda: len(frontend._queues[0]) == len(frames))
            finally:
                backend.release.set()
            await head
            outcomes = await asyncio.wait_for(
                asyncio.gather(*stream, return_exceptions=True), timeout=30.0
            )
            return outcomes, dict(client._pending)

        outcomes, pending = run_scenario(backend, scenario, tmp_path)
        assert pending == {}  # nothing left waiting
        for error in outcomes[:3]:  # drop_oldest kept the tail
            assert isinstance(error, ServerError) and error.error == "FrameDropped"
        for got, want in zip(outcomes[3:], expected, strict=True):
            np.testing.assert_array_equal(got, want)


class TestBatchedSubmits:
    """Submits are batched by the per-shard group commit: each round sends
    every frame queued since the last one to the backend in one
    ``enqueue_many`` call.  :class:`HeldBackend` holds the first round so
    the test decides exactly what queues up behind it."""

    def test_submit_batch_matches_individual_submits_bitwise(self, estimator, tmp_path):
        """A batch of submits in flight together and the same submits sent
        one at a time give the same bits: the batch is group-committed into
        full micro-batches, each lone submit is a round of one, and both
        equal in-process submits."""
        rng = np.random.default_rng(5)
        items = [(f"user-{i % 3}", make_frame(rng)) for i in range(9)]
        reference = PoseServer(estimator, LAZY)
        expected = [reference.submit(user, frame) for user, frame in items]

        async def individually(client, frontend):
            return [await client.submit(user, frame) for user, frame in items]

        single = PoseServer(estimator, LAZY)
        (tmp_path / "single").mkdir()
        one_by_one = run_scenario(single, individually, tmp_path / "single")

        batched = HeldBackend(estimator, LAZY)

        async def as_a_batch(client, frontend):
            try:
                head = asyncio.ensure_future(client.submit("held", make_frame(rng)))
                await wait_until(batched.entered.is_set)
                batch = [asyncio.ensure_future(client.submit(*item)) for item in items]
                await wait_until(lambda: len(frontend._queues[0]) == len(items))
            finally:
                batched.release.set()
            await head
            return await asyncio.gather(*batch)

        (tmp_path / "batched").mkdir()
        together = run_scenario(batched, as_a_batch, tmp_path / "batched")
        for got_batched, got_single, want in zip(together, one_by_one, expected, strict=True):
            np.testing.assert_array_equal(got_batched, want)
            np.testing.assert_array_equal(got_single, want)
        assert single.metrics.max_batch_seen == 1
        # one enqueue_many call coalesced the cohort into real micro-batches
        assert [len(call) for call in batched.calls] == [1, len(items)]
        assert batched.metrics.max_batch_seen == 8

    def test_batch_then_pipelined_submit_keeps_frame_order(self, estimator, tmp_path):
        """A ``submit_many`` batch immediately followed by pipelined submits
        for the same user joins the shard's queue in arrival order, so a
        later submit cannot overtake the batch's frames (fusion is
        order-dependent, so a reorder would change the bits)."""
        backend = HeldBackend(estimator, LAZY)
        rng = np.random.default_rng(11)
        frames = [make_frame(rng) for _ in range(6)]
        reference = PoseServer(estimator, LAZY)
        expected = [reference.submit("heidi", frame) for frame in frames]

        async def scenario(client, frontend):
            try:
                batch = asyncio.ensure_future(
                    client.submit_many("heidi", frames[:3], max_in_flight=3)
                )
                await wait_until(backend.entered.is_set)
                tail = [
                    asyncio.ensure_future(client.submit("heidi", frame))
                    for frame in frames[3:]
                ]
                # the held round took a prefix of the batch; the rest queues
                await wait_until(
                    lambda: len(backend.calls[0]) + len(frontend._queues[0]) == len(frames)
                )
            finally:
                backend.release.set()
            first = await batch
            rest = await asyncio.gather(*tail)
            return list(first) + list(rest)

        served = run_scenario(backend, scenario, tmp_path)
        assert len(backend.calls) == 2
        for (_, points), frame in zip(
            [*backend.calls[0], *backend.calls[1]], frames, strict=True
        ):
            np.testing.assert_array_equal(points, frame.points)
        for got, want in zip(served, expected, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_pipelined_submits_form_one_micro_batch_per_round(self, estimator, tmp_path):
        """K pipelined submits that arrive while a round is in flight reach
        the backend in one ``enqueue_many`` call, in arrival order, and
        every reply equals a sequential in-process replay bitwise."""
        backend = HeldBackend(estimator, LAZY)
        rng = np.random.default_rng(41)
        held = ("held", make_frame(rng))
        queued = [(f"user-{i % 3}", make_frame(rng)) for i in range(6)]
        reference = PoseServer(estimator, LAZY)
        expected = [reference.submit(user, frame) for user, frame in [held, *queued]]

        async def scenario(client, frontend):
            try:
                head = asyncio.ensure_future(client.submit(*held))
                await wait_until(backend.entered.is_set)
                rest = [asyncio.ensure_future(client.submit(*item)) for item in queued]
                await wait_until(lambda: len(frontend._queues[0]) == len(queued))
            finally:
                backend.release.set()
            return await asyncio.gather(head, *rest)

        served = run_scenario(backend, scenario, tmp_path)
        assert [[user for user, _ in call] for call in backend.calls] == [
            ["held"],
            [user for user, _ in queued],
        ]
        for (_, points), (_, frame) in zip(backend.calls[1], queued):
            np.testing.assert_array_equal(points, frame.points)
        for got, want in zip(served, expected):
            np.testing.assert_array_equal(got, want)
        assert backend.metrics.max_batch_seen == len(queued)

    def test_mid_batch_rejection_reports_per_frame_errors(self, estimator, tmp_path):
        """Under ``reject`` a round larger than the queue admits its prefix;
        each refused frame's waiter gets ``QueueFull`` with the retry hint,
        and the admitted frames are answered."""
        config = ServeConfig(
            max_batch_size=64, max_queue_depth=2, max_delay_ms=10_000.0, overflow="reject"
        )
        backend = HeldBackend(estimator, config)
        rng = np.random.default_rng(42)

        async def scenario(client, frontend):
            try:
                head = asyncio.ensure_future(client.submit("held", make_frame(rng)))
                await wait_until(backend.entered.is_set)
                rest = [
                    asyncio.ensure_future(client.submit(f"user-{i}", make_frame(rng)))
                    for i in range(5)
                ]
                await wait_until(lambda: len(frontend._queues[0]) == 5)
            finally:
                backend.release.set()
            outcomes = await asyncio.gather(head, *rest, return_exceptions=True)
            return outcomes, frontend.protocol_errors

        outcomes, protocol_errors = run_scenario(backend, scenario, tmp_path)
        assert all(joints.shape == (19, 3) for joints in outcomes[:3])
        for error in outcomes[3:]:
            assert isinstance(error, ServerError) and error.error == "QueueFull"
            assert error.retry_after_ms == config.scheduler.retry_after_ms
        assert protocol_errors == 0  # backpressure, not a backend fault

    def test_a_failed_round_fails_every_waiter_and_none_hangs(self, estimator, tmp_path):
        """A shard that crashes mid-round with no restart budget left: the
        round's waiters get ``ShardCrashed``, later rounds ``ShardDegraded``
        — every request is answered."""
        plan = FaultPlan(rules=(FaultRule(op="worker_crash", target="shard0", at=0),))
        config = ServeConfig(max_batch_size=8, max_delay_ms=10_000.0, fault_plan=plan)
        rng = np.random.default_rng(43)
        frames = [make_frame(rng) for _ in range(6)]

        async def scenario(client, frontend):
            submits = [client.submit(f"user-{i}", frame) for i, frame in enumerate(frames)]
            return await asyncio.wait_for(
                asyncio.gather(*submits, return_exceptions=True), timeout=30.0
            )

        with ProcessShardedPoseServer(
            estimator, num_shards=1, config=config, max_restarts=0
        ) as server:
            outcomes = run_scenario(server, scenario, tmp_path)
        assert len(outcomes) == len(frames)
        for error in outcomes:
            assert isinstance(error, ServerError)
            assert error.error in ("ShardCrashed", "ShardDegraded")
        assert outcomes[0].error == "ShardCrashed"

    def test_stop_mid_round_resolves_every_waiter_once(self, estimator, tmp_path):
        """``stop()`` with a round in flight: that round's waiter gets its
        prediction, every queued waiter ``ServerClosing``; no task outlives
        the front-end and no exception goes unretrieved."""
        backend = HeldBackend(estimator, LAZY)
        rng = np.random.default_rng(44)
        frames = [make_frame(rng) for _ in range(4)]

        async def body():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path)
            await frontend.start()
            waiters = []
            queue = frontend._queue

            def spy(user, request):
                waiters.append(queue(user, request))
                return waiters[-1]

            frontend._queue = spy
            client = AsyncPoseClient()
            await client.connect_unix(path)
            try:
                submits = [asyncio.ensure_future(client.submit("sue", frames[0]))]
                await wait_until(backend.entered.is_set)
                submits += [
                    asyncio.ensure_future(client.submit("sue", frame)) for frame in frames[1:]
                ]
                await wait_until(lambda: len(waiters) == len(frames))
                stopping = asyncio.ensure_future(frontend.stop())
                await asyncio.sleep(0.05)
                assert not stopping.done()  # waiting on the held round
                backend.release.set()
                await stopping
                assert frontend._drains == {}
                replies = await asyncio.gather(*submits, return_exceptions=True)
            finally:
                backend.release.set()
                await client.close()
            current = asyncio.current_task()
            await wait_until(lambda: all(t is current or t.done() for t in asyncio.all_tasks()))
            gc.collect()
            await asyncio.sleep(0)
            return waiters, replies, unhandled

        waiters, replies, unhandled = asyncio.run(body())
        assert waiters[0].result().shape == (19, 3)
        for waiter in waiters[1:]:
            assert isinstance(waiter.exception(), ServerClosing)
        for reply in replies:  # a reply may race the hang-up, never a hang
            if isinstance(reply, ServerError):
                assert reply.error == "ServerClosing"
            else:
                assert isinstance(reply, (np.ndarray, ConnectionError))
        assert unhandled == []

    def test_export_between_two_submits_snapshots_exactly_the_first(
        self, estimator, tmp_path
    ):
        """An ``export_user`` queued between two submits of one user is a
        round of its own: its snapshot holds the first frame only."""
        backend = HeldBackend(estimator, LAZY)
        rng = np.random.default_rng(45)
        first, second = make_frame(rng), make_frame(rng)

        async def scenario(client, frontend):
            try:
                head = asyncio.ensure_future(client.submit("held", make_frame(rng)))
                await wait_until(backend.entered.is_set)
                before = asyncio.ensure_future(client.submit("vera", first))
                export = asyncio.ensure_future(client.export_user("vera"))
                after = asyncio.ensure_future(client.submit("vera", second))
                await wait_until(lambda: len(frontend._queues[0]) == 3)
            finally:
                backend.release.set()
            await asyncio.gather(head, before, after)
            return await export

        state = run_scenario(backend, scenario, tmp_path)
        session = state["session"]
        assert session["frames_seen"] == 1
        assert len(session["points"]) == 1
        np.testing.assert_array_equal(session["points"][0], first.points)
        assert [[user for user, _ in call] for call in backend.calls] == [
            ["held"],
            ["vera"],
            ["vera"],
        ]


class TestFifoShardLock:
    """The router's per-backend ordering primitive: queue positions are
    taken synchronously, so a task that suspends between dispatch and
    acquire keeps its arrival-order slot."""

    def test_claims_grant_in_claim_order_across_suspensions(self):
        from repro.serve.router import _FifoLock

        async def body():
            lock = _FifoLock()
            order = []

            async def late_runner(claim, name):
                await asyncio.sleep(0.01)  # suspend before acquiring (the race)
                await lock.acquire(claim)
                order.append(name)
                lock.release()

            async def eager_runner(name):
                await lock.acquire(lock.claim())
                order.append(name)
                lock.release()

            first = lock.claim()  # claimed before the eager task exists
            await asyncio.gather(late_runner(first, "first"), eager_runner("second"))
            assert order == ["first", "second"]

        asyncio.run(body())

    def test_cancelled_waiter_does_not_wedge_the_queue(self):
        from repro.serve.router import _FifoLock

        async def body():
            lock = _FifoLock()
            head = lock.claim()
            waiting = asyncio.ensure_future(lock.acquire(lock.claim()))
            await asyncio.sleep(0)
            waiting.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiting
            await lock.acquire(head)
            lock.release()
            # The abandoned claim was skipped; the lock is free again.
            free = lock.claim()
            assert free.done()
            await lock.acquire(free)
            lock.release()

        asyncio.run(body())


class TestInFlightWindow:
    def test_window_bounds_concurrent_dispatch(self, estimator, tmp_path):
        """With max_in_flight=1 the server serves strictly one at a time
        even when the client pipelines aggressively."""
        backend = PoseServer(estimator, LAZY)

        async def scenario(client, frontend):
            frames = [make_frame(np.random.default_rng(6)) for _ in range(6)]
            results = await client.submit_many("frank", frames, max_in_flight=6)
            assert len(results) == 6
            assert frontend.requests_served == 6

        run_scenario(backend, scenario, tmp_path, max_in_flight=1)

    def test_invalid_window_rejected(self, backend):
        with pytest.raises(ValueError, match="max_in_flight"):
            PoseFrontend(backend, unix_path="unused", max_in_flight=0)


class TestFaultContainment:
    def test_unframeable_reply_answers_with_correlated_error(self, backend, tmp_path):
        """A reply that encodes past max_frame_bytes must come back as an
        error frame with the request's id — never a silent blackhole that
        leaves the client hanging."""

        async def body():
            path = str(tmp_path / "fuse.sock")
            # A 4-point submit fits in 512 bytes; the (19, 3) prediction
            # reply does not.
            frontend = PoseFrontend(backend, unix_path=path, max_frame_bytes=512)
            await frontend.start()
            try:
                async with AsyncPoseClient() as client:
                    await client.connect_unix(path)
                    with pytest.raises(RuntimeError, match="FrameTooLarge"):
                        await asyncio.wait_for(
                            client.submit(
                                "judy", make_frame(np.random.default_rng(10), count=4)
                            ),
                            timeout=5.0,
                        )
                    assert await client.ping()  # connection stayed usable

            finally:
                await frontend.stop()

        asyncio.run(body())

    def test_requests_after_reader_death_fail_fast(self, backend, tmp_path):
        """Once the client's read loop dies (a reply exceeded its frame
        limit), further requests must raise instead of awaiting forever."""

        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path)
            await frontend.start()
            try:
                async with AsyncPoseClient(max_frame_bytes=64) as client:
                    await client.connect_unix(path)
                    with pytest.raises((RuntimeError, ConnectionError)):
                        await asyncio.wait_for(client.hello(), timeout=5.0)
                    with pytest.raises(ConnectionError, match="broken"):
                        await client.ping()
            finally:
                await frontend.stop()

        asyncio.run(body())


class TestConnectRetry:
    def test_retry_connects_once_listener_appears(self, backend, tmp_path):
        async def body():
            path = str(tmp_path / "late.sock")
            frontend = PoseFrontend(backend, unix_path=path)

            async def connect():
                async with AsyncPoseClient() as client:
                    await client.connect_unix(path, retries=8, backoff_s=0.02)
                    return await client.ping()

            async def bind_later():
                await asyncio.sleep(0.1)
                await frontend.start()

            try:
                pinged, _ = await asyncio.gather(connect(), bind_later())
                assert pinged
            finally:
                await frontend.stop()

        asyncio.run(body())

    def test_retries_are_bounded(self, tmp_path):
        async def body():
            with pytest.raises(ConnectionError, match="3 attempt"):
                async with AsyncPoseClient() as client:
                    await client.connect_unix(
                        str(tmp_path / "absent.sock"), retries=2, backoff_s=0.01
                    )

        asyncio.run(body())


class TestPipelinedReplayEquivalence:
    """The acceptance property: pipelining and group commit over the
    socket never change a prediction — bitwise equal to in-process
    serving."""

    @pytest.fixture(scope="class")
    def streams(self, serve_dataset):
        return user_streams_from_dataset(serve_dataset, num_users=8, frames_per_user=5)

    @pytest.fixture(scope="class")
    def reference(self, estimator, streams):
        server = PoseServer(estimator, LAZY)
        return {
            user: [server.submit(user, sample.cloud) for sample in stream]
            for user, stream in streams.items()
        }

    def _assert_matches_reference(self, reference, streams, results):
        for (user, stream), predictions in zip(streams.items(), results):
            assert len(predictions) == len(stream)
            for expected, actual in zip(reference[user], predictions):
                np.testing.assert_array_equal(expected, actual)

    def test_streamed_replay_bitwise_identical_to_in_process(
        self, estimator, streams, reference, tmp_path
    ):
        """Every user streams all its frames without waiting for a reply:
        concurrent connections share group-commit rounds."""
        backend = PoseServer(estimator, LAZY)

        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path)
            await frontend.start()
            try:

                async def one(user, stream):
                    async with AsyncPoseClient() as client:
                        await client.connect_unix(path)
                        return await client.submit_many(
                            user, [sample.cloud for sample in stream], max_in_flight=len(stream)
                        )

                return await asyncio.gather(
                    *(one(user, stream) for user, stream in streams.items())
                )
            finally:
                await frontend.stop()

        self._assert_matches_reference(reference, streams, asyncio.run(body()))

    def test_pipelined_replay_through_shard_processes_bitwise_identical(
        self, estimator, streams, reference, tmp_path
    ):
        """The deployment shape: pipelined submits into process-per-shard
        serving — one connection per user, then every user's frames in
        flight at once on one connection — still bitwise equal to one
        in-process server."""

        async def body():
            path = str(tmp_path / "fuse.sock")
            with ProcessShardedPoseServer(estimator, num_shards=2, config=LAZY) as server:
                frontend = PoseFrontend(server, unix_path=path)
                await frontend.start()
                try:

                    async def one(user, stream):
                        async with AsyncPoseClient() as client:
                            await client.connect_unix(path)
                            return await client.submit_many(
                                user,
                                [sample.cloud for sample in stream],
                                max_in_flight=4,
                            )

                    pipelined = await asyncio.gather(
                        *(one(user, stream) for user, stream in streams.items())
                    )

                    # The same replay again with every frame in flight at once
                    # on one connection (the sessions differ per replay, so
                    # use a fresh cohort of user ids mapped onto the same
                    # frames).
                    async with AsyncPoseClient() as client:
                        await client.connect_unix(path)
                        shared = await asyncio.gather(
                            *(
                                client.submit_many(
                                    f"again-{user}",
                                    [sample.cloud for sample in stream],
                                    max_in_flight=len(stream),
                                )
                                for user, stream in streams.items()
                            )
                        )
                    return pipelined, shared
                finally:
                    await frontend.stop()

        pipelined, shared = asyncio.run(body())
        self._assert_matches_reference(reference, streams, pipelined)
        self._assert_matches_reference(reference, streams, shared)


class TestReconnect:
    def test_kill_and_reconnect_resumes_with_hello_replay(self, backend, tmp_path):
        """Restart the front-end under a reconnecting client: the next
        request redials, replays the hello, and serving continues with the
        server's session state (same backend object) intact."""
        path = str(tmp_path / "fuse.sock")

        async def body():
            frontend = PoseFrontend(backend, unix_path=path)
            await frontend.start()
            async with AsyncPoseClient(reconnect=True) as client:
                await client.connect_unix(path)
                hello = await client.hello()
                assert hello["protocol"] == 2
                rng = np.random.default_rng(21)
                first = await client.submit("rita", make_frame(rng))
                assert first.shape == (19, 3)

                await frontend.stop()  # the client's reader dies with it
                for _ in range(200):
                    if client._reader_task.done():
                        break
                    await asyncio.sleep(0.01)
                replacement = PoseFrontend(backend, unix_path=path)
                await replacement.start()
                try:
                    second = await client.submit("rita", make_frame(rng))
                    assert second.shape == (19, 3)
                    assert client.reconnects == 1
                    # the negotiated fields were refreshed by the replayed hello
                    assert client._hello_done
                finally:
                    await replacement.stop()

        asyncio.run(body())

    def test_reconnect_is_opt_in(self, backend, tmp_path):
        async def body():
            frontend = PoseFrontend(backend, unix_path=(path := str(tmp_path / "f.sock")))
            await frontend.start()
            async with AsyncPoseClient() as client:
                await client.connect_unix(path)
                await client.submit("sam", make_frame(np.random.default_rng(0)))
                await frontend.stop()
                with pytest.raises(ConnectionError):
                    await client.submit("sam", make_frame(np.random.default_rng(1)))
                assert client.reconnects == 0

        asyncio.run(body())

    def test_dead_target_exhausts_redial_retries(self, backend, tmp_path):
        async def body():
            frontend = PoseFrontend(backend, unix_path=(path := str(tmp_path / "f.sock")))
            await frontend.start()
            async with AsyncPoseClient(reconnect=True) as client:
                await client.connect_unix(path, retries=2, backoff_s=0.01)
                await client.ping()
                await frontend.stop()  # nothing ever comes back
                with pytest.raises((ConnectionError, OSError)):
                    await client.ping()

        asyncio.run(body())
