"""The serving acceptance tests: micro-batching must be invisible.

A replay of 50 interleaved simulated users through the micro-batched server
must produce predictions bitwise identical to the sequential per-user
reference path (the same server with ``max_batch_size=1``, i.e. every
request served alone), with and without per-user adapted parameter sets —
and grouped per-user adaptation must be bitwise identical to adapting each
user solo.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import FuseConfig, FusePoseEstimator
from repro.core.models import PoseCNN, PoseCNNConfig
from repro.dataset.loader import ArrayDataset
from repro.dataset.sample import PoseDataset
from repro.serve import (
    AdapterPolicy,
    AdapterRegistry,
    PoseServer,
    ServeConfig,
    adaptation_split,
    replay_users,
    sequential_reference,
    user_streams_from_dataset,
)
from repro.serve.session import SessionManager

from .conftest import make_frame


def as_pose_dataset(frames) -> PoseDataset:
    dataset = PoseDataset(name="calibration")
    dataset.extend(frames)
    return dataset


@pytest.fixture(scope="module")
def streams(serve_dataset):
    streams = user_streams_from_dataset(serve_dataset, num_users=50, frames_per_user=4)
    assert len(streams) == 50
    return streams


class TestBaseModelReplay:
    def test_50_users_bitwise_identical_to_unbatched_serving(self, estimator, streams):
        batched = PoseServer(estimator, ServeConfig(max_batch_size=32))
        unbatched = PoseServer(estimator, ServeConfig(max_batch_size=1, gemm_block=32))
        result_batched = replay_users(batched, streams)
        result_unbatched = replay_users(unbatched, streams)
        assert result_batched.frames_served == sum(len(s) for s in streams.values())
        assert result_batched.frames_dropped == 0
        for user in streams:
            np.testing.assert_array_equal(
                result_batched.predictions[user], result_unbatched.predictions[user]
            )
        # Micro-batching actually happened (this is not a vacuous comparison).
        assert result_batched.metrics["max_batch_seen"] == 32
        assert result_unbatched.metrics["max_batch_seen"] == 1

    def test_batch_size_does_not_change_predictions(self, estimator, streams):
        """Any two micro-batch capacities agree bitwise, not just 1 vs 32."""
        small = replay_users(
            PoseServer(estimator, ServeConfig(max_batch_size=5, gemm_block=32)), streams
        )
        large = replay_users(
            PoseServer(estimator, ServeConfig(max_batch_size=32)), streams
        )
        for user in streams:
            np.testing.assert_array_equal(small.predictions[user], large.predictions[user])

    def test_close_to_naive_per_frame_loop(self, estimator, streams):
        """The plain per-frame loop (different BLAS kernels) agrees numerically."""
        served = replay_users(PoseServer(estimator, ServeConfig(max_batch_size=32)), streams)
        naive = sequential_reference(estimator, streams)
        for user in streams:
            np.testing.assert_allclose(
                served.predictions[user], naive[user], rtol=1e-9, atol=1e-12
            )


class TestAdaptedReplay:
    @pytest.fixture(scope="class")
    def split_streams(self, serve_dataset):
        streams = user_streams_from_dataset(serve_dataset, num_users=12, frames_per_user=10)
        return adaptation_split(streams, adaptation_frames=6)

    def test_grouped_adaptation_matches_sequential_bitwise(self, estimator, split_streams):
        calibration, _ = split_streams
        users = list(calibration)[:5]
        datasets = {
            user: estimator.to_arrays(as_pose_dataset(calibration[user])) for user in users
        }
        grouped = AdapterRegistry(estimator.model)
        grouped.adapt_many(datasets, epochs=2)
        solo = AdapterRegistry(estimator.model)
        for user in users:
            solo.adapt_user(user, datasets[user], epochs=2)
        for user in users:
            for a, b in zip(grouped.parameters_for(user), solo.parameters_for(user)):
                np.testing.assert_array_equal(a, b)

    def test_mixed_base_and_adapted_replay_is_bitwise_identical(
        self, estimator, split_streams
    ):
        calibration, serving = split_streams
        adapted_users = list(serving)[:5]

        batched = PoseServer(estimator, ServeConfig(max_batch_size=16))
        batched.adapt_users(
            {user: as_pose_dataset(calibration[user]) for user in adapted_users}, epochs=2
        )
        unbatched = PoseServer(estimator, ServeConfig(max_batch_size=1, gemm_block=16))
        for user in adapted_users:
            unbatched.adapt_user(user, as_pose_dataset(calibration[user]), epochs=2)

        result_batched = replay_users(batched, serving)
        result_unbatched = replay_users(unbatched, serving)
        for user in serving:
            np.testing.assert_array_equal(
                result_batched.predictions[user], result_unbatched.predictions[user]
            )
        # Adapted users actually went down the adapted route.
        assert result_batched.metrics["adapted_parameter_sets"] == 5
        assert result_batched.metrics["adapter_hot_hits"] > 0

    def test_served_frames_equal_the_plain_model_bitwise(self, estimator, split_streams):
        """A ``scope="all"`` user's served frame, batched with co-riders, is
        the plain model's answer: a ``PoseCNN`` clone carrying the user's
        parameters, predicting that frame's features alone, gives the same
        bits."""
        calibration, serving = split_streams
        adapted_users = list(serving)[:5]
        server = PoseServer(estimator, ServeConfig(max_batch_size=16))
        server.adapt_users(
            {user: as_pose_dataset(calibration[user]) for user in adapted_users}, epochs=2
        )
        served = replay_users(server, serving)
        assert served.metrics["max_batch_seen"] == 16
        sessions = SessionManager(num_context_frames=estimator.config.num_context_frames)
        for user in adapted_users:
            model = estimator.model.clone()
            for param, array in zip(model.parameters(), server.registry.parameters_for(user)):
                param.data = np.array(array)
            session = sessions.get_or_create(user)
            for sample, prediction in zip(serving[user], served.predictions[user]):
                features = estimator.feature_builder.build_batch([session.observe(sample.cloud)])
                np.testing.assert_array_equal(prediction, model.predict_joints(features)[0])

    def test_forgotten_user_leaves_nothing_reachable(self, estimator, split_streams):
        """Once a ``scope="all"`` user is forgotten, neither the registry nor
        its working model keeps any of their arrays alive — not even when
        they were the last user trained and the last one served."""
        calibration, serving = split_streams
        users = list(serving)[:2]
        server = PoseServer(estimator, ServeConfig(max_batch_size=4))
        server.adapt_users({user: as_pose_dataset(calibration[user]) for user in users})
        forgotten = users[-1]
        replay_users(server, {forgotten: serving[forgotten]})
        stored = [weakref.ref(view.base) for view in server.registry.parameters_for(forgotten)]
        assert all(ref() is not None for ref in stored)
        server.forget_user(forgotten)
        gc.collect()
        assert all(ref() is None for ref in stored)
        assert forgotten not in server.registry
        assert users[0] in server.registry

    def test_adaptation_changes_predictions(self, estimator, split_streams):
        """The adapted route is real: personal weights alter the output."""
        calibration, serving = split_streams
        user = list(serving)[0]
        base = PoseServer(estimator, ServeConfig(max_batch_size=4))
        personal = PoseServer(estimator, ServeConfig(max_batch_size=4))
        personal.adapt_user(user, as_pose_dataset(calibration[user]), epochs=2)
        stream = {user: serving[user]}
        assert not np.allclose(
            replay_users(base, stream).predictions[user],
            replay_users(personal, stream).predictions[user],
        )


class TestLastLayerAdaptedReplay:
    """The cheap online regime: shared trunk, per-user personal heads."""

    @pytest.fixture(scope="class")
    def split_streams(self, serve_dataset):
        streams = user_streams_from_dataset(serve_dataset, num_users=12, frames_per_user=10)
        return adaptation_split(streams, adaptation_frames=6)

    def last_policy(self):
        return AdapterPolicy(scope="last", epochs=2)

    def test_grouped_head_adaptation_matches_sequential_bitwise(
        self, estimator, split_streams
    ):
        calibration, _ = split_streams
        users = list(calibration)[:5]
        datasets = {
            user: estimator.to_arrays(as_pose_dataset(calibration[user])) for user in users
        }
        grouped = AdapterRegistry(estimator.model, policy=self.last_policy(), gemm_block=16)
        grouped.adapt_many(datasets)
        solo = AdapterRegistry(estimator.model, policy=self.last_policy(), gemm_block=16)
        for user in users:
            solo.adapt_user(user, datasets[user])
        for user in users:
            head_grouped = grouped.parameters_for(user)
            head_solo = solo.parameters_for(user)
            assert head_grouped[0].shape == (57, 512)  # only the head is personal
            for a, b in zip(head_grouped, head_solo):
                np.testing.assert_array_equal(a, b)

    def test_mixed_head_adapted_replay_is_bitwise_identical(self, estimator, split_streams):
        calibration, serving = split_streams
        adapted_users = list(serving)[:5]
        batched = PoseServer(
            estimator, ServeConfig(max_batch_size=16), policy=self.last_policy()
        )
        batched.adapt_users(
            {user: as_pose_dataset(calibration[user]) for user in adapted_users}
        )
        unbatched = PoseServer(
            estimator,
            ServeConfig(max_batch_size=1, gemm_block=16),
            policy=self.last_policy(),
        )
        for user in adapted_users:
            unbatched.adapt_user(user, as_pose_dataset(calibration[user]))

        result_batched = replay_users(batched, serving)
        result_unbatched = replay_users(unbatched, serving)
        for user in serving:
            np.testing.assert_array_equal(
                result_batched.predictions[user], result_unbatched.predictions[user]
            )

    def test_base_users_unaffected_by_head_adapted_coriders(self, estimator, split_streams):
        """A base user's predictions are identical whether or not adapted
        users share their micro-batches."""
        calibration, serving = split_streams
        base_user = list(serving)[-1]
        plain = PoseServer(estimator, ServeConfig(max_batch_size=16))
        mixed = PoseServer(
            estimator, ServeConfig(max_batch_size=16), policy=self.last_policy()
        )
        mixed.adapt_users(
            {user: as_pose_dataset(calibration[user]) for user in list(serving)[:5]}
        )
        np.testing.assert_array_equal(
            replay_users(plain, serving).predictions[base_user],
            replay_users(mixed, serving).predictions[base_user],
        )


class TestActiveDropout:
    """Dropout masks would tie a user's adapted parameters to who trained
    before them, so ``scope="all"`` adaptation refuses a model with active
    dropout; serving still takes its base traffic (dropout is identity at
    inference)."""

    @pytest.fixture
    def server(self):
        model = PoseCNN(PoseCNNConfig(dropout=0.3), seed=1)
        estimator = FusePoseEstimator(FuseConfig(num_context_frames=1), model=model)
        return PoseServer(estimator, ServeConfig(max_batch_size=4))

    @staticmethod
    def _refuse(server, rng) -> None:
        dataset = ArrayDataset(rng.normal(size=(4, 5, 8, 8)), rng.normal(size=(4, 57)))
        with pytest.raises(ValueError, match="dropout"):
            server.adapt_user("u", dataset)

    def test_all_scope_adaptation_is_refused(self, server, rng):
        assert server.registry.scope == "all"
        self._refuse(server, rng)
        assert "u" not in server.registry

    def test_base_traffic_still_serves(self, server, rng):
        self._refuse(server, rng)
        session = SessionManager(num_context_frames=1).get_or_create("u")
        for _ in range(3):
            frame = make_frame(rng)
            features = server.estimator.feature_builder.build_batch([session.observe(frame)])
            np.testing.assert_array_equal(
                server.submit("u", frame), server.kernel.predict(features).reshape(-1, 3)
            )


class TestStreamSlicing:
    def test_streams_are_disjoint_and_ordered(self, serve_dataset):
        streams = user_streams_from_dataset(serve_dataset, num_users=50, frames_per_user=4)
        seen = set()
        for user, stream in streams.items():
            assert len(stream) == 4
            indices = [sample.frame_index for sample in stream]
            assert indices == sorted(indices)
            for sample in stream:
                key = (sample.sequence_id, sample.frame_index)
                assert key not in seen
                seen.add(key)

    def test_too_many_users_raises(self, serve_dataset):
        with pytest.raises(ValueError, match="too small"):
            user_streams_from_dataset(serve_dataset, num_users=10_000)
