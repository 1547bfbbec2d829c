"""Protocol v2 front-end tests: pipelining, streaming, batching, request ids.

The serving semantics are pinned by the server/shard suites; these tests
cover what the v2 socket layer owns: out-of-order reply correlation,
duplicate/unknown/missing request ids, the enqueue/ticket/push streaming
path (remote traffic actually forms micro-batches), batched submits over
the contiguous ndarray block, oversized-batch rejection,
bounded in-flight windows, connect retry — and the acceptance property:
a replay over the pipelined path is bitwise identical to in-process
serving.
"""

from __future__ import annotations

import asyncio
import json
import logging

import numpy as np
import pytest

from repro.serve import (
    AsyncPoseClient,
    PoseFrontend,
    PoseServer,
    ProcessShardedPoseServer,
    ServeConfig,
    user_streams_from_dataset,
)
from repro.serve.transport import CODEC_JSON, encode_message, read_message, write_message

from .conftest import make_frame

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
        client = AsyncPoseClient()
        client._route({"type": "prediction", "ticket": 999, "joints": 1, "pushed": True})
        client._route({"type": "pong"})  # id-less reply with nothing pending
        assert client.unmatched_replies == 2

    def test_uncorrelated_error_fails_every_pending_request(self):
        """Without a hello, an error frame carrying neither id nor ticket
        fails every outstanding request — it is never pinned on one."""

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
        """enqueue cannot work without an id: the ticket IS the id."""

        async def scenario(client, frontend):
            writer, reader = client._writer, client._reader
            client._reader_task.cancel()
            await asyncio.sleep(0)
            message = {
                "type": "enqueue",
                "user": "carol",
                "frame": {"points": make_frame(np.random.default_rng(2)).points},
            }
            await write_message(writer, message, CODEC_JSON)
            reply = (await read_message(reader))[0]
            assert reply["type"] == "error"
            assert "requires a request id" in reply["detail"]

        run_scenario(backend, scenario, tmp_path)


class TestStreaming:
    def test_remote_enqueues_form_micro_batches(self, estimator, tmp_path):
        """The point of the streaming path: concurrent remote clients fill
        the cross-user micro-batcher instead of flushing singletons."""
        backend = PoseServer(estimator, LAZY)

        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path)
            await frontend.start()
            try:

                async def one(user):
                    rng = np.random.default_rng(abs(hash(user)) % 2**32)
                    frames = [make_frame(rng) for _ in range(4)]
                    async with AsyncPoseClient() as client:
                        await client.connect_unix(path)
                        return await client.stream(user, frames, max_in_flight=4)

                results = await asyncio.gather(*(one(f"user-{i}") for i in range(4)))
                assert all(j.shape == (19, 3) for user in results for j in user)
                assert frontend.predictions_pushed == 16
            finally:
                await frontend.stop()

        asyncio.run(body())
        assert backend.metrics.max_batch_seen == 8  # real cross-user batches

    def test_poll_deadline_resolves_tickets_without_client_flush(self, estimator, tmp_path):
        """The background poller applies max_delay to remote streams."""
        backend = PoseServer(estimator, ServeConfig(max_batch_size=64, max_delay_ms=1.0))

        async def scenario(client, frontend):
            future = await client.enqueue("dave", make_frame(np.random.default_rng(3)))
            joints = await asyncio.wait_for(future, timeout=5.0)
            assert np.asarray(joints["joints"]).shape == (19, 3)

        run_scenario(backend, scenario, tmp_path)

    def test_failing_polls_log_one_line_then_one_recovery(self, estimator, tmp_path, caplog):
        """A failing poll run logs once, its recovery once, and the ticket
        still resolves on the next good tick."""
        backend = PoseServer(estimator, ServeConfig(max_batch_size=64, max_delay_ms=1.0))
        failures = [RuntimeError("shard hiccup")] * 2
        real_poll = backend.poll

        def flaky_poll():
            if failures:
                raise failures.pop()
            return real_poll()

        backend.poll = flaky_poll

        async def scenario(client, frontend):
            future = await client.enqueue("dave", make_frame(np.random.default_rng(3)))
            joints = await asyncio.wait_for(future, timeout=5.0)
            assert np.asarray(joints["joints"]).shape == (19, 3)

        with caplog.at_level(logging.WARNING, logger="repro.serve.frontend"):
            run_scenario(backend, scenario, tmp_path)

        lines = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.serve.frontend"
        ]
        assert lines == [
            {"event": "poll_failed", "error": "RuntimeError: shard hiccup"},
            {"event": "poll_recovered", "failed_polls": 2},
        ]

    def test_reused_id_with_outstanding_ticket_rejected(self, backend, tmp_path):
        async def scenario(client, frontend):
            await client.enqueue("gail", make_frame(np.random.default_rng(7)))
            # Force the same id for a second enqueue while the first ticket
            # is still unresolved: the ledger must not be overwritten.
            client._next_id -= 1
            with pytest.raises(RuntimeError, match="still outstanding"):
                await client.enqueue("gail", make_frame(np.random.default_rng(8)))
            await client.flush()

        run_scenario(backend, scenario, tmp_path)

    def test_stream_settles_every_ticket_under_drops(self, estimator, tmp_path):
        """Dropped frames mid-stream must not abandon later predictions:
        every ticket settles, successes stay retrievable."""
        backend = PoseServer(
            estimator,
            ServeConfig(max_batch_size=64, max_queue_depth=2, max_delay_ms=10_000.0),
        )
        rng = np.random.default_rng(13)
        frames = [make_frame(rng) for _ in range(5)]

        async def scenario(client, frontend):
            mixed = await client.stream(
                "kate", frames, max_in_flight=5, return_errors=True
            )
            with pytest.raises(RuntimeError, match="dropped"):
                await client.stream("kate", frames, max_in_flight=5)
            return mixed

        mixed = run_scenario(backend, scenario, tmp_path)
        served = [r for r in mixed if isinstance(r, np.ndarray)]
        dropped = [r for r in mixed if isinstance(r, Exception)]
        assert len(served) == 2 and len(dropped) == 3  # drop_oldest kept the tail
        assert all(j.shape == (19, 3) for j in served)

    def test_explicit_flush_resolves_partial_batch(self, backend, tmp_path):
        async def scenario(client, frontend):
            future = await client.enqueue("erin", make_frame(np.random.default_rng(4)))
            assert not future.done()
            produced = await client.flush()
            assert produced == 1
            assert (await future)["ticket"] is not None

        run_scenario(backend, scenario, tmp_path)


class TestBatchedSubmits:
    def test_submit_batch_matches_individual_submits_bitwise(
        self, estimator, tmp_path
    ):
        rng = np.random.default_rng(5)
        items = [(f"user-{i % 3}", make_frame(rng)) for i in range(9)]
        reference_server = PoseServer(estimator, LAZY)
        expected = [reference_server.submit(user, frame) for user, frame in items]
        backend = PoseServer(estimator, LAZY)

        async def scenario(client, frontend):
            return await client.submit_batch(items)

        served = run_scenario(backend, scenario, tmp_path)
        for over_wire, direct in zip(served, expected):
            np.testing.assert_array_equal(over_wire, direct)
        # One wire frame coalesced the whole cohort into real micro-batches.
        assert backend.metrics.max_batch_seen == 8

    def test_batch_then_pipelined_submit_keeps_frame_order(self, estimator, tmp_path):
        """A submit_batch immediately followed by pipelined submits for the
        same user must enqueue in arrival order: the batch's fan-out tasks
        claim their shard slots at dispatch time, so a later request that
        reaches its shard lock without suspending cannot overtake them
        (fusion is order-dependent, so a reorder would change the bits)."""
        rng = np.random.default_rng(11)
        frames = [make_frame(rng) for _ in range(6)]
        reference_server = PoseServer(estimator, LAZY)
        expected = [reference_server.submit("heidi", frame) for frame in frames]
        backend = PoseServer(estimator, LAZY)

        async def scenario(client, frontend):
            batch = asyncio.ensure_future(
                client.submit_batch([("heidi", frame) for frame in frames[:3]])
            )
            await asyncio.sleep(0)  # the batch is dispatched, fan-out pending
            tail = [
                asyncio.ensure_future(client.submit("heidi", frame))
                for frame in frames[3:]
            ]
            first = await batch
            rest = await asyncio.gather(*tail)
            return list(first) + list(rest)

        served = run_scenario(backend, scenario, tmp_path)
        for over_wire, direct in zip(served, expected):
            np.testing.assert_array_equal(over_wire, direct)

    def test_malformed_batch_reports_error(self, backend, tmp_path):
        async def scenario(client, frontend):
            with pytest.raises(RuntimeError, match="equally sized"):
                await client.request(
                    {"type": "submit_batch", "users": ["a", "b"], "frames": {"points": []}}
                )
            assert await client.ping()

        run_scenario(backend, scenario, tmp_path)

    def test_mid_batch_rejection_reports_per_frame_errors(self, estimator, tmp_path):
        """Backpressure inside a submit_batch: admitted frames answer,
        rejected frames carry their own error slots."""
        backend = PoseServer(
            estimator,
            ServeConfig(max_batch_size=64, max_queue_depth=2, overflow="reject"),
        )
        rng = np.random.default_rng(12)
        items = [(f"user-{i}", make_frame(rng)) for i in range(5)]

        async def scenario(client, frontend):
            return await client.submit_batch(items, return_errors=True)

        results = run_scenario(backend, scenario, tmp_path)
        served = [r for r in results if isinstance(r, np.ndarray)]
        failed = [r for r in results if isinstance(r, Exception)]
        assert len(served) == 2 and all(j.shape == (19, 3) for j in served)
        assert len(failed) == 3 and all("QueueFull" in str(e) for e in failed)

    def test_replies_use_the_codec_of_their_own_request(self, backend, tmp_path):
        """Pipelined replies must not inherit the codec of the most recent
        frame on the connection."""
        from repro.serve.transport import CODEC_MSGPACK, available_codecs

        if CODEC_MSGPACK not in available_codecs():
            pytest.skip("msgpack not installed")
        raw = transport_frames = []

        async def scenario(client, frontend):
            writer, reader = client._writer, client._reader
            client._reader_task.cancel()
            await asyncio.sleep(0)
            slow = {
                "type": "submit",
                "user": "ivan",
                "id": 1,
                "frame": {"points": make_frame(np.random.default_rng(9)).points},
            }
            await write_message(writer, slow, CODEC_MSGPACK)
            await write_message(writer, {"type": "ping", "id": 2}, CODEC_JSON)
            for _ in range(2):
                message, codec = await read_message(reader)
                raw.append((message["type"], codec))

        run_scenario(backend, scenario, tmp_path)
        assert dict(transport_frames) == {"pong": CODEC_JSON, "prediction": CODEC_MSGPACK}

    def test_oversized_batched_frame_closes_connection_with_error(
        self, backend, tmp_path
    ):
        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path, max_frame_bytes=2048)
            await frontend.start()
            try:
                reader, writer = await asyncio.open_unix_connection(path)
                from repro.serve.transport import ArrayBlock

                big = {
                    "type": "submit_batch",
                    "id": 1,
                    "users": list(range(8)),
                    "frames": {"points": ArrayBlock([np.zeros((64, 5))] * 8)},
                }
                writer.write(encode_message(big, CODEC_JSON))
                await writer.drain()
                reply = await read_message(reader)
                assert reply is not None and reply[0]["type"] == "error"
                assert "FrameTooLarge" in reply[0]["error"]
                assert await reader.read() == b""  # server hung up
                writer.close()
                await writer.wait_closed()
                assert frontend.protocol_errors == 1
            finally:
                await frontend.stop()

        asyncio.run(body())


class TestFifoShardLock:
    """The ordering primitive behind pipelined dispatch: queue positions
    are taken synchronously, so a task that suspends between dispatch and
    enqueue (submit_batch's fan-out) keeps its arrival-order slot."""

    def test_claims_grant_in_claim_order_across_suspensions(self):
        from repro.serve.frontend import _FifoShardLock

        async def body():
            lock = _FifoShardLock()
            order = []

            async def late_runner(claim, name):
                await asyncio.sleep(0.01)  # suspend before acquiring (the race)
                async with lock.held(claim):
                    order.append(name)

            async def eager_runner(name):
                async with lock.held(lock.claim()):
                    order.append(name)

            first = lock.claim()  # claimed before the eager task exists
            await asyncio.gather(late_runner(first, "first"), eager_runner("second"))
            assert order == ["first", "second"]

        asyncio.run(body())

    def test_cancelled_waiter_does_not_wedge_the_queue(self):
        from repro.serve.frontend import _FifoShardLock

        async def body():
            lock = _FifoShardLock()
            head = lock.claim()
            waiting = asyncio.ensure_future(lock.acquire(lock.claim()))
            await asyncio.sleep(0)
            waiting.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiting
            async with lock.held(head):
                pass
            # The abandoned claim was skipped; the lock is free again.
            async with lock.held(lock.claim()):
                pass

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
    """The acceptance property: pipelining/streaming/batching over the
    socket never changes a prediction — bitwise equal to in-process
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
        backend = PoseServer(estimator, LAZY)

        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path)
            await frontend.start()
            try:

                async def one(user, stream):
                    async with AsyncPoseClient() as client:
                        await client.connect_unix(path)
                        return await client.stream(
                            user, [sample.cloud for sample in stream], max_in_flight=4
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
        """The deployment shape: pipelined submits + batched submits into
        process-per-shard serving, still bitwise equal to one in-process
        server."""

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

                    # The same replay again as per-tick batched submits (the
                    # sessions differ per replay, so use a fresh cohort of
                    # user ids mapped onto the same frames).
                    async with AsyncPoseClient() as client:
                        await client.connect_unix(path)
                        batched = {user: [] for user in streams}
                        for tick in range(max(len(s) for s in streams.values())):
                            items = [
                                (f"again-{user}", stream[tick].cloud)
                                for user, stream in streams.items()
                                if tick < len(stream)
                            ]
                            predictions = await client.submit_batch(items)
                            for (tagged_user, _), joints in zip(items, predictions):
                                batched[tagged_user[len("again-"):]].append(joints)
                    return pipelined, list(batched.values())
                finally:
                    await frontend.stop()

        pipelined, batched = asyncio.run(body())
        self._assert_matches_reference(reference, streams, pipelined)
        self._assert_matches_reference(reference, streams, batched)


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


class TestPushFlowControl:
    def test_default_frontend_advertises_no_budget(self, backend, tmp_path):
        async def scenario(client, frontend):
            hello = await client.hello()
            assert hello["push_credits"] is None

        run_scenario(backend, scenario, tmp_path)

    def test_pushes_defer_until_credits_granted(self, backend, tmp_path):
        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path, push_credits=1)
            await frontend.start()
            try:
                async with AsyncPoseClient(auto_credits=False) as client:
                    await client.connect_unix(path)
                    await client.hello()
                    rng = np.random.default_rng(31)
                    futures = [
                        await client.enqueue("tess", make_frame(rng))
                        for _ in range(3)
                    ]
                    produced = await client.flush()
                    assert produced == 3
                    # budget 1: one push crosses, two wait server-side
                    await asyncio.wait(futures, timeout=0.3)
                    assert sum(f.done() for f in futures) == 1
                    (conn,) = frontend._connections
                    assert len(conn.deferred) == 2

                    available = await client.grant_credits(2)
                    assert available == 0  # the deferred pushes drained it
                    pushes = await asyncio.gather(*futures)
                    assert all(
                        np.asarray(push["joints"]).shape == (19, 3)
                        for push in pushes
                    )
            finally:
                await frontend.stop()

        asyncio.run(body())

    def test_auto_grants_keep_a_long_stream_flowing(self, backend, tmp_path):
        """With a tiny budget and auto credits on (the default), the client
        replenishes at half budget and an 8-frame stream fully resolves."""

        async def scenario(client, frontend):
            await client.hello()
            rng = np.random.default_rng(32)
            futures = []
            for _ in range(8):
                futures.append(await client.enqueue("uma", make_frame(rng)))
                await client.flush()
            pushes = await asyncio.gather(*futures)
            assert len(pushes) == 8
            assert all(push["pushed"] for push in pushes)

        run_scenario(backend, scenario, tmp_path, push_credits=2)

    def test_negative_grant_rejected(self, backend, tmp_path):
        async def scenario(client, frontend):
            with pytest.raises(RuntimeError, match="grant"):
                await client.grant_credits(-1)

        run_scenario(backend, scenario, tmp_path, push_credits=1)
