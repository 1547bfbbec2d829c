"""Socket front-end tests: end-to-end serving over Unix and TCP sockets.

The front-end is transport glue — the serving semantics are pinned by the
server/shard suites — so these tests focus on what the socket layer owns:
request routing to the backend, per-connection request/reply framing,
error reporting (malformed submits, framing faults) and shutdown.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import AsyncPoseClient, PoseFrontend, PoseServer, ServeConfig
from repro.serve.transport import CODEC_JSON, encode_message

from .conftest import make_frame


@pytest.fixture()
def backend(estimator):
    # An in-process server: the frontend serializes it through one executor
    # thread, so the fast tier needs no worker processes here.
    return PoseServer(estimator, ServeConfig(max_batch_size=1, gemm_block=8))


def run_frontend_scenario(backend, scenario, **frontend_kwargs):
    """Start a Unix-socket front-end, run ``scenario(client)``, tear down."""

    async def body(tmp_path):
        path = str(tmp_path / "fuse.sock")
        frontend = PoseFrontend(backend, unix_path=path, **frontend_kwargs)
        await frontend.start()
        try:
            async with AsyncPoseClient() as client:
                await client.connect_unix(path)
                return await scenario(client, frontend)
        finally:
            await frontend.stop()

    return body


class TestUnixSocketServing:
    def test_submit_matches_direct_backend_call(self, backend, estimator, tmp_path):
        rng = np.random.default_rng(7)
        frames = [make_frame(rng) for _ in range(3)]
        reference_server = PoseServer(
            estimator, ServeConfig(max_batch_size=1, gemm_block=8)
        )
        expected = [reference_server.submit("alice", frame) for frame in frames]

        async def scenario(client, frontend):
            return [await client.submit("alice", frame) for frame in frames]

        served = asyncio.run(run_frontend_scenario(backend, scenario)(tmp_path))
        for over_wire, direct in zip(served, expected):
            np.testing.assert_array_equal(over_wire, direct)

    def test_hello_ping_metrics_prometheus(self, backend, tmp_path):
        async def scenario(client, frontend):
            hello = await client.hello()
            assert hello["protocol"] == 2
            assert "protocols" not in hello
            assert CODEC_JSON in hello["codecs"]
            assert await client.ping()
            await client.submit("bob", make_frame(np.random.default_rng(0)))
            metrics = await client.metrics()
            assert metrics["completed"] == 1
            text = await client.prometheus()
            assert text.startswith("# HELP")
            assert frontend.requests_served >= 4

        asyncio.run(run_frontend_scenario(backend, scenario)(tmp_path))

    def test_concurrent_connections_all_answered(self, backend, tmp_path):
        async def scenario(_, frontend):
            async def one_user(user):
                async with AsyncPoseClient() as client:
                    await client.connect_unix(frontend.unix_path)
                    rng = np.random.default_rng(hash(user) % 2**32)
                    return [await client.submit(user, make_frame(rng)) for _ in range(2)]

            results = await asyncio.gather(*(one_user(f"user-{i}") for i in range(5)))
            assert all(joints.shape == (19, 3) for user in results for joints in user)
            assert frontend.connections_served >= 6

        asyncio.run(run_frontend_scenario(backend, scenario)(tmp_path))

    def test_remote_shutdown_when_enabled(self, backend, tmp_path):
        async def scenario(client, frontend):
            await client.shutdown()
            await asyncio.wait_for(frontend.serve_until_closed(), timeout=5)

        asyncio.run(
            run_frontend_scenario(backend, scenario, allow_remote_shutdown=True)(tmp_path)
        )

    def test_remote_shutdown_refused_by_default(self, backend, tmp_path):
        async def scenario(client, frontend):
            with pytest.raises(RuntimeError, match="shutdown is disabled"):
                await client.shutdown()
            assert await client.ping()  # connection stayed up

        asyncio.run(run_frontend_scenario(backend, scenario)(tmp_path))


class TestUnixSocketLifecycle:
    def test_socket_path_is_reusable_after_stop_and_after_stale_exit(
        self, backend, tmp_path
    ):
        """stop() unlinks the socket; start() clears a stale one."""

        async def body():
            path = str(tmp_path / "fuse.sock")
            import os

            for _ in range(2):  # clean restart on the same path
                frontend = PoseFrontend(backend, unix_path=path)
                await frontend.start()
                assert os.path.exists(path)
                await frontend.stop()
                assert not os.path.exists(path)

            # A stale socket left by a listener that never ran stop().
            crashed = PoseFrontend(backend, unix_path=path)
            await crashed.start()
            crashed._listener.close()
            await crashed._listener.wait_closed()
            crashed._listener = None  # skip stop()'s unlink: the file stays
            assert os.path.exists(path)
            fresh = PoseFrontend(backend, unix_path=path)
            await fresh.start()
            try:
                async with AsyncPoseClient() as client:
                    await client.connect_unix(path)
                    assert await client.ping()
            finally:
                await fresh.stop()

        asyncio.run(body())

    def test_parallelism_defaults(self, backend, estimator, tmp_path):
        """Only a parallel-safe backend gets a multi-thread executor."""
        from repro.serve import ProcessShardedPoseServer

        assert PoseFrontend(backend, unix_path="unused").parallelism == 1
        with ProcessShardedPoseServer(estimator, num_shards=2) as process_backed:
            assert PoseFrontend(process_backed, unix_path="unused").parallelism == 2


class TestTcpServing:
    def test_tcp_round_trip_on_ephemeral_port(self, backend):
        async def body():
            frontend = PoseFrontend(backend, host="127.0.0.1", port=0)
            await frontend.start()
            host, port = frontend.address
            assert port != 0
            try:
                async with AsyncPoseClient() as client:
                    await client.connect_tcp(host, port)
                    joints = await client.submit("carol", make_frame(np.random.default_rng(1)))
                    assert joints.shape == (19, 3)
            finally:
                await frontend.stop()

        asyncio.run(body())


class TestErrorPaths:
    def test_malformed_submit_reports_error_and_keeps_connection(self, backend, tmp_path):
        async def scenario(client, frontend):
            with pytest.raises(RuntimeError, match="ProtocolError"):
                await client.request({"type": "submit", "user": "dave"})  # no frame
            assert await client.ping()

        asyncio.run(run_frontend_scenario(backend, scenario)(tmp_path))

    def test_unservable_message_type_reports_error(self, backend, tmp_path):
        async def scenario(client, frontend):
            with pytest.raises(RuntimeError, match="cannot serve"):
                await client.request({"type": "prediction", "user": "x", "joints": 1})
            assert await client.ping()

        asyncio.run(run_frontend_scenario(backend, scenario)(tmp_path))

    def test_oversized_frame_closes_connection_with_error(self, backend, tmp_path):
        async def body():
            path = str(tmp_path / "fuse.sock")
            frontend = PoseFrontend(backend, unix_path=path, max_frame_bytes=512)
            await frontend.start()
            try:
                reader, writer = await asyncio.open_unix_connection(path)
                big = {"type": "submit", "user": "eve", "frame": {"points": np.zeros((500, 5))}}
                writer.write(encode_message(big, CODEC_JSON))
                await writer.drain()
                from repro.serve.transport import read_message

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
