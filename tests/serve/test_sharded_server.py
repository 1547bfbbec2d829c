"""Multi-shard serving: placement, equivalence and aggregated observability.

The acceptance property mirrors the micro-batching one: sharding users over
N shard processes must be invisible — a replay through a
:class:`ProcessShardedPoseServer` is bitwise identical, user for user, to
the same replay through a single :class:`PoseServer` with the same
scheduling config.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.sample import PoseDataset
from repro.runtime import shard_for
from repro.serve import (
    PoseServer,
    ProcessShardedPoseServer,
    ServeConfig,
    adaptation_split,
    replay_users,
    user_streams_from_dataset,
)
from repro.serve.worker import MetricsRequest


def as_pose_dataset(frames) -> PoseDataset:
    dataset = PoseDataset(name="calibration")
    dataset.extend(frames)
    return dataset


def shard_replies(server: ProcessShardedPoseServer):
    """Each shard worker's occupancy report, in shard order."""
    return [worker.call(MetricsRequest()) for worker in server.workers]


@pytest.fixture(scope="module")
def streams(serve_dataset):
    return user_streams_from_dataset(serve_dataset, num_users=24, frames_per_user=4)


class TestPlacement:
    def test_users_route_to_stable_shards(self, estimator):
        users = ("alice", "bob", 42)
        with ProcessShardedPoseServer(estimator, num_shards=4) as server:
            placement = {user: server.shard_index(user) for user in users}
        assert all(0 <= index < 4 for index in placement.values())
        # The stable hash: the same placement in every process and restart.
        assert placement == {user: shard_for(user, 4) for user in users}

    def test_invalid_shard_count(self, estimator):
        with pytest.raises(ValueError):
            ProcessShardedPoseServer(estimator, num_shards=0)

    def test_single_shard_degenerates_to_one_server(self, estimator, streams):
        user = next(iter(streams))
        frame = streams[user][0].cloud
        expected = PoseServer(estimator).submit(user, frame)
        with ProcessShardedPoseServer(estimator, num_shards=1) as server:
            assert server.num_shards == 1
            assert server.shard_index("anyone") == 0
            np.testing.assert_array_equal(server.submit(user, frame), expected)


class TestReplayEquivalence:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_sharded_replay_bitwise_identical_to_single_server(
        self, estimator, streams, num_shards
    ):
        config = ServeConfig(max_batch_size=32)
        single = replay_users(PoseServer(estimator, config), streams)
        with ProcessShardedPoseServer(
            estimator, num_shards=num_shards, config=config
        ) as sharded_server:
            sharded = replay_users(sharded_server, streams)
            # Traffic genuinely spread over the shards.
            active = [reply for reply in shard_replies(sharded_server) if reply.sessions]
        assert sharded.frames_served == single.frames_served
        assert sharded.frames_dropped == 0
        for user in streams:
            np.testing.assert_array_equal(
                sharded.predictions[user], single.predictions[user]
            )
        assert len(active) > 1

    def test_adapted_sharded_replay_bitwise_identical(self, estimator, serve_dataset):
        streams = user_streams_from_dataset(serve_dataset, num_users=12, frames_per_user=10)
        calibration, serving = adaptation_split(streams, adaptation_frames=6)
        adapted_users = list(serving)[:5]
        calibration_sets = {
            user: as_pose_dataset(calibration[user]) for user in adapted_users
        }

        config = ServeConfig(max_batch_size=16)
        single_server = PoseServer(estimator, config)
        single_server.adapt_users(calibration_sets, epochs=2)
        single = replay_users(single_server, serving)
        with ProcessShardedPoseServer(estimator, num_shards=3, config=config) as sharded_server:
            sharded_server.adapt_users(calibration_sets, epochs=2)
            sharded = replay_users(sharded_server, serving)
            # Each adapted user's parameters live on exactly their shard.
            owners = [sharded_server.shard_index(user) for user in adapted_users]
            for index, reply in enumerate(shard_replies(sharded_server)):
                assert reply.adapted_parameter_sets == owners.count(index)
        for user in serving:
            np.testing.assert_array_equal(
                sharded.predictions[user], single.predictions[user]
            )

    def test_submit_and_forget_route_to_the_owner_shard(self, estimator, streams):
        user = next(iter(streams))
        frame = streams[user][0].cloud
        with ProcessShardedPoseServer(
            estimator, num_shards=2, config=ServeConfig(max_batch_size=4)
        ) as server:
            owner = server.shard_index(user)
            joints = server.submit(user, frame)
            assert joints.shape == (19, 3)
            sessions = [reply.sessions for reply in shard_replies(server)]
            assert sessions[owner] == 1 and sum(sessions) == 1
            server.forget_user(user)
            assert [reply.sessions for reply in shard_replies(server)] == [0, 0]


class TestAggregatedMetrics:
    def test_snapshot_sums_across_shards(self, estimator, streams):
        config = ServeConfig(max_batch_size=8)
        with ProcessShardedPoseServer(estimator, num_shards=3, config=config) as server:
            result = replay_users(server, streams)
            flushes = sum(
                reply.state["flushes"] for reply in shard_replies(server)
            )
        total = sum(len(stream) for stream in streams.values())
        snapshot = result.metrics
        assert snapshot["shards"] == 3
        assert snapshot["submitted"] == total
        assert snapshot["completed"] == total
        assert snapshot["sessions"] == len(streams)
        assert snapshot["flushes"] == flushes
        assert snapshot["latency_p95_ms"] >= snapshot["latency_p50_ms"] >= 0.0
        assert snapshot["throughput_fps"] > 0

    def test_deadline_accounting_sums_every_shard(self, estimator, streams):
        """Each shard judges its own frames' deadlines when a flush serves
        them; the snapshot sums misses and per-class completions over the
        shards.  Per shard, one frame's budget (1 ns) is spent before its
        flush can run and one's (60 s) is not."""
        users = [user for user in streams if shard_for(user, 2) == 0][:2]
        users += [user for user in streams if shard_for(user, 2) == 1][:2]
        with ProcessShardedPoseServer(
            estimator, num_shards=2, config=ServeConfig(max_batch_size=64)
        ) as server:
            for user, (priority, deadline_ms) in zip(
                users, [("interactive", 1e-6), ("bulk", 60_000.0)] * 2
            ):
                server.enqueue(user, streams[user][0].cloud, priority, deadline_ms)
            assert server.flush() == 4
            per_shard = [reply.state["deadline_misses"] for reply in shard_replies(server)]
            snapshot = server.metrics_snapshot()
        assert per_shard == [1, 1]
        assert snapshot["deadline_misses"] == 2
        assert snapshot["class_interactive_completed"] == 2
        assert snapshot["class_bulk_completed"] == 2

    def test_prometheus_exposition_labels_every_shard(self, estimator, streams):
        with ProcessShardedPoseServer(
            estimator, num_shards=2, config=ServeConfig(max_batch_size=8)
        ) as server:
            replay_users(server, streams)
            text = server.to_prometheus()
        assert text.endswith("\n")
        for shard in (0, 1):
            assert f'fuse_serve_requests_completed_total{{shard="{shard}"}}' in text
            assert f'shard="{shard}",quantile="0.95"' in text
        # One header per metric family, not one per shard.
        assert text.count("# TYPE fuse_serve_requests_completed_total counter") == 1
        assert text.count("# TYPE fuse_serve_request_latency_seconds summary") == 1
