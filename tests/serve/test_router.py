"""The routed serving tier, end to end over real sockets.

The acceptance property of the cluster tier: a replay through
:class:`PoseRouter` over two or more backends — including across a forced
backend failure and a live user migration — is bitwise identical to the
same replay against one reference server.  Everything here runs on Unix
sockets under ``tmp_path`` with kernel-assigned names, so tests are
parallel-safe and port-free.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging

import numpy as np
import pytest

from repro.dataset.loader import ArrayDataset
from repro.serve import (
    AdapterPolicy,
    AsyncPoseClient,
    BackendSpec,
    NoBackendAvailable,
    PoseFrontend,
    PoseRouter,
    PoseServer,
    ProcessShardedPoseServer,
    RouterBackend,
    ServeConfig,
    SocketServerBase,
)

from .conftest import make_frame

LAZY = ServeConfig(max_batch_size=8, max_delay_ms=10_000.0)

#: health cadence fast enough for tests, debounced enough to not flap
FAST_HEALTH = dict(health_interval_s=0.05, health_timeout_s=0.5, health_failures=2)

#: user-6 and user-11 land on b1, the rest on b0 (pinned by test_ring.py's
#: determinism) — the list exercises both backends of a two-node ring
USERS = [f"user-{i}" for i in (0, 1, 2, 3, 6, 11)]


def run_cluster(servers, scenario, tmp_path, **router_kwargs):
    """Start one front-end per server plus a router; run ``scenario``.

    ``scenario(client, router, frontends)`` gets a client connected to the
    router's socket.  Backends are named ``b0..bN`` and listen on Unix
    sockets under ``tmp_path``.
    """

    async def body():
        frontends = []
        specs = []
        for index, server in enumerate(servers):
            path = str(tmp_path / f"b{index}.sock")
            frontend = PoseFrontend(server, unix_path=path)
            await frontend.start()
            frontends.append(frontend)
            specs.append(BackendSpec(name=f"b{index}", unix_path=path))
        router_path = str(tmp_path / "router.sock")
        router = PoseRouter(
            specs,
            unix_path=router_path,
            connect_retries=3,
            connect_backoff_s=0.01,
            **{**FAST_HEALTH, **router_kwargs},
        )
        await router.start()
        try:
            async with AsyncPoseClient() as client:
                await client.connect_unix(router_path)
                return await scenario(client, router, frontends)
        finally:
            await router.stop()
            for frontend in frontends:
                with contextlib.suppress(Exception):
                    await frontend.stop()

    return asyncio.run(body())


def reference_replay(estimator, streams):
    """The single-server ground truth for a ``{user: [frames]}`` replay."""
    server = PoseServer(estimator, LAZY)
    return {
        user: [server.submit(user, frame) for frame in frames]
        for user, frames in streams.items()
    }


def make_streams(num_frames=4, users=USERS):
    return {
        user: [make_frame(np.random.default_rng(1000 + 31 * i + j)) for j in range(num_frames)]
        for i, user in enumerate(users)
    }


class TestClusterShape:
    def test_hello_reports_the_fleet(self, estimator, tmp_path):
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]

        async def scenario(client, router, frontends):
            hello = await client.hello()
            assert hello["role"] == "router"
            assert hello["backends"] == ["b0", "b1"]
            assert hello["protocol"] == 2
            assert hello["shards"] == 2  # one unsharded server each

        run_cluster(servers, scenario, tmp_path)

    def test_router_requires_protocol_v2(self, tmp_path):
        """A backend whose hello announces another protocol is refused at
        attach; the router itself has no protocol setting."""

        class OldBackend(SocketServerBase):
            def _hello_extra(self):
                return {"protocol": 1}

        async def body():
            path = str(tmp_path / "old.sock")
            backend = await OldBackend(unix_path=path).start()
            router = PoseRouter(
                [BackendSpec(name="old", unix_path=path)],
                unix_path=str(tmp_path / "router.sock"),
            )
            try:
                with pytest.raises(ValueError, match="speaks protocol v1"):
                    await router.start()
            finally:
                await backend.stop()

        asyncio.run(body())
        with pytest.raises(TypeError):
            PoseRouter(unix_path=str(tmp_path / "unused.sock"), protocol=2)

    def test_empty_ring_rejects_submits(self, estimator, tmp_path):
        async def scenario(client, router, frontends):
            with pytest.raises(RuntimeError, match="NoBackendAvailable"):
                await client.submit("alice", make_frame(np.random.default_rng(0)))

        run_cluster([], scenario, tmp_path)

    def test_no_backend_available_is_a_runtime_error(self):
        assert issubclass(NoBackendAvailable, RuntimeError)


class TestRoutedReplay:
    def test_replay_is_bitwise_identical_to_single_server(self, estimator, tmp_path):
        """The tier-acceptance smoke: 6 users spread over 2 backends."""
        streams = make_streams()
        expected = reference_replay(estimator, streams)
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]

        async def scenario(client, router, frontends):
            for step in range(len(streams[USERS[0]])):
                for user in USERS:
                    got = await client.submit(user, streams[user][step])
                    np.testing.assert_array_equal(got, expected[user][step])
            # the placement actually used both backends
            placed = set(router._placement.values())
            assert placed == {"b0", "b1"}
            assert router.frames_routed == sum(len(f) for f in streams.values())

        run_cluster(servers, scenario, tmp_path)

    def test_batched_submit_routes_each_user_in_order(self, estimator, tmp_path):
        """A batch of submits — every frame of four users in flight at once
        on one connection — reaches the backends in each user's order,
        bitwise equal to the single-server replay."""
        streams = make_streams(num_frames=3, users=USERS[:4])
        expected = reference_replay(estimator, streams)
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]

        async def scenario(client, router, frontends):
            results = await asyncio.gather(
                *(
                    client.submit_many(user, frames, max_in_flight=len(frames))
                    for user, frames in streams.items()
                )
            )
            for user, predictions in zip(streams, results):
                for got, want in zip(predictions, expected[user]):
                    np.testing.assert_array_equal(got, want)

        run_cluster(servers, scenario, tmp_path)


class TestSessionRepair:
    def test_failed_repair_logs_one_line_and_the_retry_proceeds(self, caplog):
        """A retry's mirror re-seed is best-effort, but not silent."""

        class ResettingClient:
            async def import_user(self, state):
                raise ConnectionError("connection reset by peer")

        attempts = []

        async def call(backend):
            attempts.append(backend.name)
            if len(attempts) == 1:
                raise asyncio.TimeoutError  # ambiguous: the retry must repair
            return "joints"

        async def body():
            router = PoseRouter(unix_path="router.sock", request_timeout_s=5.0)
            spec = BackendSpec(name="b0", unix_path="unused.sock")
            router._backends["b0"] = RouterBackend(spec, ResettingClient())
            router.ring.add("b0")
            router.monitor.watch("b0")
            return await router._forward("user-0", call, repair_on_retry=True)

        with caplog.at_level(logging.WARNING, logger="repro.serve.router"):
            assert asyncio.run(body()) == "joints"
        assert attempts == ["b0", "b0"]
        lines = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.serve.router"
        ]
        assert lines == [
            {
                "event": "repair_failed",
                "user": "user-0",
                "backend": "b0",
                "reason": "ConnectionError: connection reset by peer",
            }
        ]


class TestClusterMetrics:
    def test_metrics_aggregate_across_backends(self, estimator, tmp_path):
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]

        async def scenario(client, router, frontends):
            for user in USERS:
                await client.submit(user, make_frame(np.random.default_rng(5)))
            report = await client.metrics()
            assert report["completed"] == len(USERS)
            assert report["router_frames_routed"] == len(USERS)
            assert report["router_backends_healthy"] == 2
            assert report["router_users_placed"] == len(USERS)

        run_cluster(servers, scenario, tmp_path)

    def test_prometheus_labels_every_backend(self, estimator, tmp_path):
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]

        async def scenario(client, router, frontends):
            for user in USERS:
                await client.submit(user, make_frame(np.random.default_rng(6)))
            text = await client.prometheus()
            assert 'instance="b0"' in text and 'instance="b1"' in text
            assert "fuse_router_frames_routed_total" in text
            # merged exposition: one HELP per family, not one per backend
            helps = [line for line in text.splitlines() if line.startswith("# HELP ")]
            assert len(helps) == len({h.split()[2] for h in helps})

        run_cluster(servers, scenario, tmp_path)


class TestFailover:
    def test_forced_backend_death_fails_users_over_bitwise(self, estimator, tmp_path):
        """Kill a backend mid-replay: its users continue on the survivor,
        and the full sequence stays bitwise equal to the reference."""
        streams = make_streams(num_frames=6, users=USERS[:4])
        expected = reference_replay(estimator, streams)
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]

        async def scenario(client, router, frontends):
            for user in streams:
                for step in range(3):
                    got = await client.submit(user, streams[user][step])
                    np.testing.assert_array_equal(got, expected[user][step])

            victim = router._placement[USERS[0]]
            victim_index = int(victim[1:])
            moved_users = [u for u, b in router._placement.items() if b == victim]
            await frontends[victim_index].stop()
            for _ in range(200):
                await asyncio.sleep(0.01)
                if router.monitor.is_down(victim):
                    break
            assert not router.backends[victim].healthy

            for user in streams:
                for step in range(3, 6):
                    got = await client.submit(user, streams[user][step])
                    np.testing.assert_array_equal(got, expected[user][step])
            assert router.users_failed_over == len(moved_users)
            assert router.backends_lost == 1
            survivors = set(router._placement.values())
            assert victim not in survivors

        run_cluster(servers, scenario, tmp_path)


class TestLiveMigration:
    def test_migrate_user_moves_session_and_adapter_bitwise(
        self, estimator, serve_dataset, tmp_path
    ):
        policy = AdapterPolicy(scope="last", epochs=2)
        arrays = estimator.prepare(serve_dataset[:8])
        calibration = ArrayDataset(arrays.features, arrays.labels)

        # reference: one server, adapted, never migrated
        reference = PoseServer(estimator, LAZY, policy=policy)
        reference.adapt_user("alice", calibration)
        frames = [make_frame(np.random.default_rng(40 + i)) for i in range(6)]
        expected = [reference.submit("alice", frame) for frame in frames]

        servers = [PoseServer(estimator, LAZY, policy=policy) for _ in range(2)]

        async def scenario(client, router, frontends):
            for step in range(3):
                got = await client.submit("alice", frames[step])
                np.testing.assert_array_equal(got, expected[step])
            source = router._placement["alice"]
            target = "b1" if source == "b0" else "b0"

            moved = await router.migrate_user("alice", target)
            assert moved and router.users_migrated == 1
            assert router._placement["alice"] == target
            # the source forgot the user entirely
            assert servers[int(source[1:])].sessions.get("alice") is None

            for step in range(3, 6):
                got = await client.submit("alice", frames[step])
                np.testing.assert_array_equal(got, expected[step])

        # adapt on every backend replica? No: adapt only where alice lands.
        # The router pins alice on first submit; adapt her everywhere ahead
        # of time so placement choice cannot matter.
        for server in servers:
            server.adapt_user("alice", calibration)

        run_cluster(servers, scenario, tmp_path)

    def test_migrating_between_backends_keeps_inflight_order(self, estimator, tmp_path):
        """Frames submitted concurrently with a migration all resolve, in
        FIFO order per user, with no frame lost or double-served."""
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]
        frames = [make_frame(np.random.default_rng(60 + i)) for i in range(8)]
        reference = PoseServer(estimator, LAZY)
        expected = [reference.submit("bob", frame) for frame in frames]

        async def scenario(client, router, frontends):
            await client.submit("bob", frames[0])
            source = router._placement["bob"]
            target = "b1" if source == "b0" else "b0"
            submits = [
                asyncio.ensure_future(client.submit("bob", frame))
                for frame in frames[1:]
            ]
            await router.migrate_user("bob", target)
            results = await asyncio.gather(*submits)
            for got, want in zip(results, expected[1:]):
                np.testing.assert_array_equal(got, want)
            assert router._placement["bob"] == target

        run_cluster(servers, scenario, tmp_path)


class TestTopologyAdmin:
    def test_add_backend_rebalances_by_live_migration(self, estimator, tmp_path):
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]
        extra = PoseServer(estimator, LAZY)
        streams = make_streams(num_frames=2)
        expected = reference_replay(estimator, streams)

        async def scenario(client, router, frontends):
            for user in USERS:
                got = await client.submit(user, streams[user][0])
                np.testing.assert_array_equal(got, expected[user][0])

            path = str(tmp_path / "b2.sock")
            frontend = PoseFrontend(extra, unix_path=path)
            await frontend.start()
            try:
                await router.add_backend(BackendSpec(name="b2", unix_path=path))
                assert "b2" in router.ring
                # users whose ring arc moved to b2 were migrated there
                movers = [u for u, b in router._placement.items() if b == "b2"]
                assert movers == [
                    u for u in USERS if router.ring.node_for(u) == "b2"
                ]
                for user in USERS:
                    got = await client.submit(user, streams[user][1])
                    np.testing.assert_array_equal(got, expected[user][1])
            finally:
                await frontend.stop()

        run_cluster(servers, scenario, tmp_path)

    def test_remove_backend_migrates_its_users_away(self, estimator, tmp_path):
        servers = [PoseServer(estimator, LAZY) for _ in range(2)]
        streams = make_streams(num_frames=2)
        expected = reference_replay(estimator, streams)

        async def scenario(client, router, frontends):
            for user in USERS:
                await client.submit(user, streams[user][0])
            await router.remove_backend("b0")
            assert "b0" not in router.ring
            assert set(router._placement.values()) == {"b1"}
            for user in USERS:
                got = await client.submit(user, streams[user][1])
                np.testing.assert_array_equal(got, expected[user][1])

        run_cluster(servers, scenario, tmp_path)

    def test_removing_the_last_backend_with_users_is_refused(self, estimator, tmp_path):
        servers = [PoseServer(estimator, LAZY)]

        async def scenario(client, router, frontends):
            await client.submit("alice", make_frame(np.random.default_rng(0)))
            with pytest.raises(RuntimeError, match="last healthy backend"):
                await router.remove_backend("b0")

        run_cluster(servers, scenario, tmp_path)


class TestAcceptanceProcessBackends:
    def test_routed_replay_with_failover_and_migration_over_processes(
        self, estimator, tmp_path
    ):
        """The PR's acceptance pin: 2 backend *processes* behind the
        router; replay stays bitwise through one forced failover and one
        live migration."""
        streams = make_streams(num_frames=6, users=USERS[:3])
        expected = reference_replay(estimator, streams)
        servers = [
            ProcessShardedPoseServer(estimator, num_shards=1, config=LAZY)
            for _ in range(2)
        ]

        async def scenario(client, router, frontends):
            for user in streams:
                for step in range(2):
                    got = await client.submit(user, streams[user][step])
                    np.testing.assert_array_equal(got, expected[user][step])

            # one live migration: move the first user to the other backend
            mover = USERS[0]
            source = router._placement[mover]
            target = "b1" if source == "b0" else "b0"
            assert await router.migrate_user(mover, target)

            for user in streams:
                for step in range(2, 4):
                    got = await client.submit(user, streams[user][step])
                    np.testing.assert_array_equal(got, expected[user][step])

            # one forced failover: kill the backend now serving the mover
            victim = router._placement[mover]
            await frontends[int(victim[1:])].stop()

            for user in streams:
                for step in range(4, 6):
                    got = await client.submit(user, streams[user][step])
                    np.testing.assert_array_equal(got, expected[user][step])
            assert router.backends_lost == 1
            assert router.users_migrated == 1
            assert router.users_failed_over >= 1

        try:
            run_cluster(servers, scenario, tmp_path)
        finally:
            for server in servers:
                server.close()
