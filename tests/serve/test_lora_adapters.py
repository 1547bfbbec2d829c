"""Low-rank (``scope="lora"``) per-user adaptation and serving.

The acceptance properties of the low-rank route:

* grouped lora adaptation is bitwise identical to adapting each user solo
  (factor init is seeded per user, not per group slot);
* a micro-batched replay of interleaved lora users is bitwise identical to
  the same replay served unbatched, and base users are unaffected;
* per-user resident memory at rank 4 is at most 10% of ``scope="all"``;
* the versioned record schema round-trips lora factors through spill
  re-attach and rejects migrated records whose format, scope or rank does
  not match the registry's policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.sample import PoseDataset
from repro.nn.serialization import read_record_header, record_bytes
from repro.serve import (
    AdapterPolicy,
    AdapterRegistry,
    PoseServer,
    ServeConfig,
    adaptation_split,
    replay_users,
    user_streams_from_dataset,
)
from repro.serve.adapters import RECORD_FORMAT


def as_pose_dataset(frames) -> PoseDataset:
    dataset = PoseDataset(name="calibration")
    dataset.extend(frames)
    return dataset


@pytest.fixture(scope="module")
def split_streams(serve_dataset):
    streams = user_streams_from_dataset(serve_dataset, num_users=10, frames_per_user=10)
    return adaptation_split(streams, adaptation_frames=6)


@pytest.fixture(scope="module")
def calibration_arrays(estimator, split_streams):
    calibration, _ = split_streams
    return {
        user: estimator.to_arrays(as_pose_dataset(frames))
        for user, frames in calibration.items()
    }


class TestLoraAdaptation:
    def test_grouped_adaptation_matches_solo_bitwise(self, estimator, calibration_arrays):
        """All 10 users x 6 frames: the grouped step's 60 frames fill one
        32-row block of the fully connected layers' shared-base fold and a
        padded tail, so users in the block, across its boundary and in the
        tail are pinned."""
        users = list(calibration_arrays)
        policy = AdapterPolicy(scope="lora", rank=2, epochs=2)
        grouped = AdapterRegistry(estimator.model, policy=policy)
        grouped.adapt_many({user: calibration_arrays[user] for user in users})
        solo = AdapterRegistry(estimator.model, policy=policy)
        for user in users:
            solo.adapt_user(user, calibration_arrays[user])
        for user in users:
            for a, b in zip(grouped.parameters_for(user), solo.parameters_for(user)):
                np.testing.assert_array_equal(a, b)

    def test_factor_shapes_follow_rank(self, estimator, calibration_arrays):
        user = next(iter(calibration_arrays))
        registry = AdapterRegistry(
            estimator.model, policy=AdapterPolicy(scope="lora", rank=3, epochs=1)
        )
        registry.adapt_user(user, calibration_arrays[user])
        params = registry.parameters_for(user)
        assert len(params) % 2 == 0
        for a, b in zip(params[0::2], params[1::2]):
            assert a.shape[0] == 3  # (rank, in)
            assert b.shape[1] == 3  # (out, rank)

    def test_resident_memory_within_10_percent_of_full_adaptation(
        self, estimator, calibration_arrays
    ):
        """The ISSUE criterion: rank-4 lora state <= 10% of scope='all'."""
        user = next(iter(calibration_arrays))
        lora = AdapterRegistry(
            estimator.model, policy=AdapterPolicy(scope="lora", rank=4, epochs=1)
        )
        lora.adapt_user(user, calibration_arrays[user])
        full = AdapterRegistry(
            estimator.model, policy=AdapterPolicy(scope="all", epochs=1)
        )
        full.adapt_user(user, calibration_arrays[user])
        ratio = lora.resident_bytes(user) / full.resident_bytes(user)
        assert ratio <= 0.10, f"lora resident state is {ratio:.2%} of scope='all'"


class TestLoraReplay:
    def test_micro_batched_replay_bitwise_identical_to_unbatched(
        self, estimator, split_streams
    ):
        calibration, serving = split_streams
        adapted_users = list(serving)[:4]
        policy = AdapterPolicy(scope="lora", rank=2, epochs=2)

        batched = PoseServer(estimator, ServeConfig(max_batch_size=16, adapter=policy))
        batched.adapt_users(
            {user: as_pose_dataset(calibration[user]) for user in adapted_users}
        )
        unbatched = PoseServer(
            estimator, ServeConfig(max_batch_size=1, gemm_block=16), policy=policy
        )
        for user in adapted_users:
            unbatched.adapt_user(user, as_pose_dataset(calibration[user]))

        result_batched = replay_users(batched, serving)
        result_unbatched = replay_users(unbatched, serving)
        assert result_batched.frames_dropped == 0
        for user in serving:
            np.testing.assert_array_equal(
                result_batched.predictions[user], result_unbatched.predictions[user]
            )

    def test_base_users_unaffected_by_lora_traffic(self, estimator, split_streams):
        calibration, serving = split_streams
        adapted_users = list(serving)[:3]
        policy = AdapterPolicy(scope="lora", rank=2, epochs=1)

        mixed = PoseServer(estimator, ServeConfig(max_batch_size=16), policy=policy)
        mixed.adapt_users(
            {user: as_pose_dataset(calibration[user]) for user in adapted_users}
        )
        base_only = PoseServer(estimator, ServeConfig(max_batch_size=16))

        result_mixed = replay_users(mixed, serving)
        result_base = replay_users(base_only, serving)
        for user in serving:
            if user in adapted_users:
                continue
            np.testing.assert_array_equal(
                result_mixed.predictions[user], result_base.predictions[user]
            )

    def test_adapted_predictions_differ_from_base(self, estimator, split_streams):
        calibration, serving = split_streams
        user = next(iter(serving))
        server = PoseServer(
            estimator, ServeConfig(), policy=AdapterPolicy(scope="lora", rank=2, epochs=2)
        )
        server.adapt_user(user, as_pose_dataset(calibration[user]))
        base = PoseServer(estimator, ServeConfig())
        adapted_out = replay_users(server, {user: serving[user]}).predictions[user]
        base_out = replay_users(base, {user: serving[user]}).predictions[user]
        assert not np.array_equal(adapted_out, base_out)


class TestVersionedSchema:
    def test_lora_round_trip_and_format_tag(self, estimator, calibration_arrays, tmp_path):
        policy = AdapterPolicy(scope="lora", rank=2, epochs=1, spill_dir=tmp_path / "spill")
        registry = AdapterRegistry(estimator.model, policy=policy)
        users = list(calibration_arrays)[:2]
        registry.adapt_many({user: calibration_arrays[user] for user in users})

        for user in users:
            metadata = read_record_header(registry._spill_paths[user])
            assert metadata["format"] == RECORD_FORMAT
            assert metadata["scope"] == "lora"
            assert metadata["rank"] == 2

        restored = AdapterRegistry(estimator.model, policy=policy)
        assert set(restored.user_ids) == set(users)
        for user in users:
            for a, b in zip(registry.parameters_for(user), restored.parameters_for(user)):
                np.testing.assert_array_equal(a, b)

    def test_rank_mismatch_raises_readable_error(self, estimator, calibration_arrays):
        user = next(iter(calibration_arrays))
        saver = AdapterRegistry(
            estimator.model, policy=AdapterPolicy(scope="lora", rank=4, epochs=1)
        )
        saver.adapt_user(user, calibration_arrays[user])
        loader = AdapterRegistry(
            estimator.model, policy=AdapterPolicy(scope="lora", rank=8, epochs=1)
        )
        with pytest.raises(ValueError, match="rank-4.*rank=8"):
            loader.import_user_bytes(user, saver.export_user_bytes(user))

    def test_scope_mismatch_raises_readable_error(self, estimator, calibration_arrays):
        user = next(iter(calibration_arrays))
        saver = AdapterRegistry(
            estimator.model, policy=AdapterPolicy(scope="last", epochs=1)
        )
        saver.adapt_user(user, calibration_arrays[user])
        loader = AdapterRegistry(
            estimator.model, policy=AdapterPolicy(scope="lora", rank=4, epochs=1)
        )
        with pytest.raises(ValueError, match="scope='last'"):
            loader.import_user_bytes(user, saver.export_user_bytes(user))

    def test_legacy_format1_archive_is_rejected_naming_its_format(
        self, estimator, calibration_arrays
    ):
        """A format-1 record (full tensors, no rank metadata) does not
        install, even into a policy whose scope matches."""
        policy = AdapterPolicy(scope="last", epochs=1)
        registry = AdapterRegistry(estimator.model, policy=policy)
        user = next(iter(calibration_arrays))
        registry.adapt_user(user, calibration_arrays[user])
        params = registry.parameters_for(user)

        # Author the record as format 1 described it: full tensors, metadata
        # with just format/scope/user.
        state = {f"p{slot:03d}": np.asarray(p) for slot, p in enumerate(params)}
        legacy = record_bytes(
            state, metadata={"format": 1, "scope": "last", "user": ["str", str(user)]}
        )

        restored = AdapterRegistry(estimator.model, policy=policy)
        with pytest.raises(ValueError, match="format-1 record"):
            restored.import_user_bytes(user, legacy)
        assert len(restored) == 0

    def test_legacy_format1_cannot_load_into_lora_policy(self, estimator):
        legacy = record_bytes(
            {"p000": np.zeros((3, 3))},
            metadata={"format": 1, "scope": "lora", "user": ["str", "alice"]},
        )
        registry = AdapterRegistry(
            estimator.model, policy=AdapterPolicy(scope="lora", rank=4, epochs=1)
        )
        with pytest.raises(ValueError, match="format-1"):
            registry.import_user_bytes("alice", legacy)
