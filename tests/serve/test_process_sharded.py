"""Process-per-shard serving: replay equivalence, lifecycle, crash recovery.

The acceptance property holds across the process boundary: a replay
through a :class:`ProcessShardedPoseServer` — every shard a worker process
behind a picklable request/reply transport — is bitwise identical, user for
user, to the same replay through one in-process :class:`PoseServer`.
"""

from __future__ import annotations

import gc
import json
import logging
import pickle
import threading
import time

import numpy as np
import pytest

from repro.dataset.sample import PoseDataset
from repro.serve import (
    FrameDropped,
    PoseServer,
    ProcessShardedPoseServer,
    QueueFull,
    ServeConfig,
    ShardCrashed,
    ShardProcess,
    ShardRemoteError,
    adaptation_split,
    replay_users,
    user_streams_from_dataset,
)
from repro.serve.worker import ShardCall, ShardFactory, shard_metrics

from .conftest import make_frame


def flush_then_return_a_lock(server: PoseServer):
    """A shard call whose batch resolves but whose value cannot pickle."""
    server.flush()
    return threading.Lock()


@pytest.fixture(scope="module")
def streams(serve_dataset):
    return user_streams_from_dataset(serve_dataset, num_users=12, frames_per_user=4)


@pytest.fixture()
def server(estimator):
    with ProcessShardedPoseServer(
        estimator, num_shards=2, config=ServeConfig(max_batch_size=8)
    ) as server:
        yield server


class TestReplayEquivalence:
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_process_replay_bitwise_identical_to_in_process(
        self, estimator, streams, num_shards
    ):
        config = ServeConfig(max_batch_size=16)
        inproc = replay_users(PoseServer(estimator, config), streams)
        with ProcessShardedPoseServer(
            estimator, num_shards=num_shards, config=config
        ) as server:
            proc = replay_users(server, streams)
        assert proc.frames_served == inproc.frames_served
        assert proc.frames_dropped == 0
        for user in streams:
            np.testing.assert_array_equal(proc.predictions[user], inproc.predictions[user])

    def test_adapted_process_replay_bitwise_identical(self, estimator, serve_dataset):
        streams = user_streams_from_dataset(serve_dataset, num_users=6, frames_per_user=10)
        calibration, serving = adaptation_split(streams, adaptation_frames=6)
        adapted = list(serving)[:3]
        calibration_sets = {}
        for user in adapted:
            dataset = PoseDataset(name="calibration")
            dataset.extend(calibration[user])
            calibration_sets[user] = dataset

        config = ServeConfig(max_batch_size=8)
        inproc_server = PoseServer(estimator, config)
        inproc_server.adapt_users(calibration_sets, epochs=2)
        inproc = replay_users(inproc_server, serving)

        with ProcessShardedPoseServer(estimator, num_shards=2, config=config) as server:
            server.adapt_users(calibration_sets, epochs=2)
            snapshot = server.metrics_snapshot()
            assert snapshot["adapted_parameter_sets"] == len(adapted)
            proc = replay_users(server, serving)

        for user in serving:
            np.testing.assert_array_equal(proc.predictions[user], inproc.predictions[user])


class TestFacade:
    def test_submit_routes_and_answers(self, server, streams):
        user = next(iter(streams))
        joints = server.submit(user, streams[user][0].cloud)
        assert joints.shape == (19, 3)
        assert server.pending == 0

    def test_enqueue_resolves_on_flush(self, server, streams):
        users = list(streams)[:3]
        handles = [server.enqueue(user, streams[user][0].cloud) for user in users]
        assert server.pending == len([h for h in handles if not h.done])
        server.flush()
        for handle in handles:
            assert handle.done
            assert handle.result(flush=False).shape == (19, 3)
        assert server.pending == 0

    def test_enqueue_many_matches_sequential_enqueues_bitwise(
        self, estimator, streams
    ):
        """One EnqueueBatch IPC hop per shard == N single-frame enqueues."""
        users = list(streams)[:6]
        items = [
            (user, streams[user][tick].cloud) for tick in range(3) for user in users
        ]
        config = ServeConfig(max_batch_size=8)
        with ProcessShardedPoseServer(estimator, num_shards=2, config=config) as one:
            sequential = [one.enqueue(user, frame) for user, frame in items]
            one.flush()
        with ProcessShardedPoseServer(estimator, num_shards=2, config=config) as many:
            batched = many.enqueue_many(items)
            many.flush()
        assert len(batched) == len(items)
        for left, right in zip(sequential, batched):
            np.testing.assert_array_equal(
                left.result(flush=False), right.result(flush=False)
            )

    def test_enqueue_many_mid_batch_rejection_keeps_prefix_valid(
        self, estimator, streams
    ):
        """A QueueFull on frame k must not orphan frames 0..k-1: they stay
        registered, resolvable handles; the rejected frames come back as
        per-slot exceptions (never a whole-batch failure the client would
        blindly retry, double-feeding fusion rings)."""
        users = list(streams)[:6]
        config = ServeConfig(
            max_batch_size=64, max_queue_depth=2, overflow="reject"
        )
        with ProcessShardedPoseServer(estimator, num_shards=1, config=config) as server:
            items = [(user, streams[user][0].cloud) for user in users]
            outcomes = server.enqueue_many(items)
            handles = [h for h in outcomes if not isinstance(h, Exception)]
            rejected = [h for h in outcomes if isinstance(h, Exception)]
            assert len(handles) == 2  # the admitted prefix, in order
            assert outcomes[0] is handles[0] and outcomes[1] is handles[1]
            assert all(isinstance(error, QueueFull) for error in rejected)
            server.flush()
            for handle in handles:
                assert handle.result(flush=False).shape == (19, 3)

    def test_flush_closes_every_workers_partial_batch(self, estimator, streams):
        """A worker closes a batch only when it fills or is flushed: with
        every deadline spent at arrival (a 0 ms budget), partial batches
        still wait on both workers through further commands, until one
        façade flush serves them all, each counted as a deadline miss."""
        config = ServeConfig(max_batch_size=64, max_delay_ms=0.0)
        with ProcessShardedPoseServer(estimator, num_shards=2, config=config) as server:
            users = [user for user in streams if server.shard_index(user) == 0][:2]
            users += [user for user in streams if server.shard_index(user) == 1][:2]
            handles = [server.enqueue(user, streams[user][0].cloud) for user in users]
            gauges = [worker.call(ShardCall(shard_metrics)).value for worker in server.workers]
            assert [shard["pending"] for shard in gauges] == [2, 2]
            assert server.pending == 4
            assert server.flush() == 4
            assert server.pending == 0
            assert all(handle.done for handle in handles)
            assert server.metrics_snapshot()["deadline_misses"] == 4

    def test_forget_user_clears_shard_state(self, server, streams):
        user = next(iter(streams))
        server.submit(user, streams[user][0].cloud)
        index = server.shard_index(user)
        assert server.workers[index].call(ShardCall(shard_metrics)).value["sessions"] == 1
        server.forget_user(user)
        assert server.workers[index].call(ShardCall(shard_metrics)).value["sessions"] == 0

    def test_remote_error_reports_traceback_and_keeps_shard_alive(self, server, streams):
        user = next(iter(streams))
        with pytest.raises(ShardRemoteError, match="remote traceback"):
            server.adapt_users({user: object()})  # not a dataset: fails in the worker
        # The shard survived the failed command and still serves.
        assert server.submit(user, streams[user][0].cloud).shape == (19, 3)
        assert server.restarts == 0


class TestReplyLedger:
    """Every shard reply carries the events since the last one, so a handle
    resolves from the reply of whichever call flushed its batch."""

    CONFIG = ServeConfig(max_batch_size=64, max_delay_ms=10_000.0)

    def test_export_reply_resolves_handles_a_metrics_reply_leaves_pending(self, estimator):
        frames = [make_frame(np.random.default_rng(seed)) for seed in range(3)]
        local = PoseServer(estimator, self.CONFIG)
        expected = [local.enqueue("ann", frame) for frame in frames]
        local.export_user("ann")
        with ProcessShardedPoseServer(estimator, num_shards=1, config=self.CONFIG) as server:
            handles = [server.enqueue("ann", frame) for frame in frames]
            server.metrics_snapshot()  # does not flush
            assert server.pending == 3
            assert not any(handle.done for handle in handles)
            server.export_user("ann")  # flushes inside the worker, not here
            assert server.pending == 0
            assert all(handle.done for handle in handles)
        for remote, local_handle in zip(handles, expected):
            np.testing.assert_array_equal(
                remote.result(flush=False), local_handle.result(flush=False)
            )


class TestCallsThatCannotCross:
    """A command or a value that does not pickle fails its call; the caller
    never waits on a message the queue's feeder thread dropped."""

    CONFIG = TestReplyLedger.CONFIG

    def test_a_lambda_raises_in_the_caller_and_the_shard_keeps_serving(self, estimator):
        with ProcessShardedPoseServer(estimator, num_shards=1, config=self.CONFIG) as server:
            with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
                server.workers[0].call(ShardCall(lambda shard: shard.pending))
            server.enqueue("ann", make_frame(np.random.default_rng(0)))
            assert server.metrics_snapshot()["queue_depth"] == 1
            assert server.restarts == 0

    def test_an_unpicklable_value_fails_remotely_and_keeps_its_events(self, estimator):
        frames = [make_frame(np.random.default_rng(seed)) for seed in range(3)]
        with ProcessShardedPoseServer(estimator, num_shards=1, config=self.CONFIG) as server:
            handles = [server.enqueue("ann", frame) for frame in frames]
            with pytest.raises(ShardRemoteError, match="pickle"):
                server.workers[0].call(ShardCall(flush_then_return_a_lock))
            assert not any(handle.done for handle in handles)
            server.metrics_snapshot()  # the next reply carries the flush's events
            assert server.pending == 0
            assert all(handle.done for handle in handles)
            assert server.restarts == 0


class TestRejectionsCrossTheProcessBoundary:
    """A frame a shard refuses reaches the caller as the exception an
    in-process :class:`PoseServer` raises: same class, message and retry
    hint — from ``enqueue`` and from an ``enqueue_many`` slot alike."""

    CONFIG = ServeConfig(
        max_batch_size=64, max_queue_depth=1, max_delay_ms=10_000.0, overflow="reject"
    )

    @staticmethod
    def _rejections(server, frame):
        """Deadline shed, unknown class, then a full queue — per slot."""
        outcomes = server.enqueue_many(
            [
                ("ann", frame, None, 0.0),
                ("ann", frame, "no-such-class", None),
                ("ann", frame),
                ("bob", frame),
            ]
        )
        assert not isinstance(outcomes[2], Exception)  # admitted: fills the queue
        return [outcomes[0], outcomes[1], outcomes[3]]

    def test_rejections_keep_their_class_and_hint(self, estimator):
        frame = make_frame(np.random.default_rng(3))
        expected = self._rejections(PoseServer(estimator, self.CONFIG), frame)
        with ProcessShardedPoseServer(estimator, num_shards=1, config=self.CONFIG) as server:
            got = self._rejections(server, frame)
            with pytest.raises(FrameDropped, match="deadline exhausted"):
                server.enqueue("cy", frame, deadline_ms=0)
            with pytest.raises(QueueFull) as full:
                server.submit("cy", frame)
        assert [type(error) for error in got] == [FrameDropped, ValueError, QueueFull]
        for remote, local in zip(got, expected):
            assert type(remote) is type(local)
            assert str(remote) == str(local)
            assert getattr(remote, "retry_after_ms", None) == getattr(
                local, "retry_after_ms", None
            )
        assert full.value.retry_after_ms == self.CONFIG.scheduler.retry_after_ms


class TestObservability:
    def test_snapshot_aggregates_across_processes(self, server, streams):
        result = replay_users(server, streams)
        total = sum(len(stream) for stream in streams.values())
        snapshot = result.metrics
        assert snapshot["shards"] == 2
        assert snapshot["submitted"] == total
        assert snapshot["completed"] == total
        assert snapshot["sessions"] == len(streams)
        assert snapshot["queue_depth"] == 0
        assert snapshot["shard_restarts"] == 0
        assert snapshot["latency_p95_ms"] >= snapshot["latency_p50_ms"] >= 0.0
        assert snapshot["throughput_fps"] > 0

    def test_prometheus_labels_every_shard_process(self, server, streams):
        replay_users(server, streams)
        text = server.to_prometheus()
        for shard in (0, 1):
            assert f'fuse_serve_requests_completed_total{{shard="{shard}"}}' in text
        assert text.count("# TYPE fuse_serve_requests_completed_total counter") == 1


class TestThreadSafety:
    def test_concurrent_submits_from_many_threads(self, estimator, streams):
        """The façade is called from the front-end's executor threads.

        The worker round-trip and the parent-side handle bookkeeping must
        be atomic per shard: without the shard locks, a reply ledger can
        resolve a sequence before its handle is registered and a submit
        hangs or raises 'still pending'.
        """
        from concurrent.futures import ThreadPoolExecutor

        with ProcessShardedPoseServer(
            estimator, num_shards=2, config=ServeConfig(max_batch_size=4)
        ) as server:
            users = list(streams)

            def pump(user):
                return [
                    server.submit(user, sample.cloud) for sample in streams[user][:3]
                ]

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(pump, users))
            for per_user in results:
                assert all(joints.shape == (19, 3) for joints in per_user)
            snapshot = server.metrics_snapshot()
            assert snapshot["completed"] == 3 * len(users)
            assert server.pending == 0


def sharded_lines(caplog) -> list:
    return [
        json.loads(record.getMessage())
        for record in caplog.records
        if record.name == "repro.serve.sharded"
    ]


class TestLifecycle:
    def test_close_is_idempotent_and_drops_outstanding(self, estimator, streams):
        config = ServeConfig(max_batch_size=64, max_delay_ms=10_000.0)
        server = ProcessShardedPoseServer(estimator, num_shards=2, config=config)
        user = next(iter(streams))
        handle = server.enqueue(user, streams[user][0].cloud)
        server.close()
        server.close()
        assert handle.done or handle.dropped
        with pytest.raises(RuntimeError):
            server.submit(user, streams[user][0].cloud)

    def test_crashed_shard_restarts_and_serving_continues(self, estimator, streams):
        with ProcessShardedPoseServer(
            estimator, num_shards=2, config=ServeConfig(max_batch_size=4)
        ) as server:
            users = list(streams)
            # Park one pending request so the crash has something to drop.
            victim_shard = server.shard_index(users[0])
            handle = server.enqueue(users[0], streams[users[0]][0].cloud)

            server.workers[victim_shard]._process.kill()
            with pytest.raises(ShardCrashed):
                server.submit(users[0], streams[users[0]][0].cloud)

            # The worker was replaced; its outstanding request was dropped.
            assert server.restarts == 1
            assert handle.done or handle.dropped
            if handle.dropped:
                with pytest.raises(FrameDropped):
                    handle.result(flush=False)

            # Fresh shard serves the same users again (sessions restart empty).
            for user in users[:4]:
                assert server.submit(user, streams[user][0].cloud).shape == (19, 3)
            assert server.metrics_snapshot()["shard_restarts"] == 1

    def test_failed_close_at_collection_is_logged(self, estimator, caplog, monkeypatch):
        """A server collected without close() whose shutdown raises logs one
        JSON line with the reason instead of swallowing the error."""
        server = ProcessShardedPoseServer(estimator, num_shards=1)
        worker = server.workers[0]

        def failing_stop(self, timeout=5.0):
            raise RuntimeError("shutdown lost")

        monkeypatch.setattr(ShardProcess, "stop", failing_stop)
        with caplog.at_level(logging.WARNING, logger="repro.serve.sharded"):
            del server
            gc.collect()
        monkeypatch.undo()
        worker.stop()
        assert sharded_lines(caplog) == [
            {"event": "shard_close_failed", "reason": "RuntimeError: shutdown lost"}
        ]

    def test_collecting_a_half_built_server_logs_nothing(self, estimator, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.serve.sharded"):
            with pytest.raises(ValueError):
                ProcessShardedPoseServer(estimator, num_shards=0)
            gc.collect()
        assert sharded_lines(caplog) == []

    def test_failed_graceful_stop_is_logged(self, estimator, caplog, monkeypatch):
        """A Shutdown the worker never answers still tears the process down
        and logs why, instead of turning the failure into a silent None."""
        # The forked worker inherits this flush, so its Shutdown outlives
        # the stop timeout.
        monkeypatch.setattr(PoseServer, "flush", lambda self: time.sleep(30))
        worker = ShardProcess(ShardFactory(estimator, ServeConfig()), 3)
        worker.start()
        with caplog.at_level(logging.WARNING, logger="repro.serve.worker"):
            assert worker.stop(timeout=0.5) is None
        assert not worker.alive
        lines = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.serve.worker"
        ]
        assert len(lines) == 1
        assert lines[0]["event"] == "shard_stop_failed"
        assert lines[0]["shard"] == 3
        assert lines[0]["reason"].startswith(
            "ShardCrashed: shard 3 did not reply to Shutdown"
        )
