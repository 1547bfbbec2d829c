"""The adapter registry's gather stacks only the micro-batch's users.

``AdapterRegistry.gather`` resolves a batch's users across the tiers
(promoting warm ones, the batch protected from the demotions that
triggers) and stacks their stored arrays, one ``np.stack`` per parameter
tensor.  Nothing is kept between batches: these tests pin the gathered bits
against each user's own parameters through tier churn, re-adaptation,
removal and migration, the promotion schedule the churn follows, and that a
served batch's stack is freed with the batch.
"""

from __future__ import annotations

import gc
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.loader import ArrayDataset
from repro.dataset.sample import PoseDataset
from repro.serve import (
    AdapterPolicy,
    AdapterRegistry,
    ServeMetrics,
    adaptation_split,
    user_streams_from_dataset,
)

from .conftest import tiny_model


@pytest.fixture()
def adapted_registry(estimator, serve_dataset):
    streams = user_streams_from_dataset(serve_dataset, num_users=6, frames_per_user=8)
    calibration, _ = adaptation_split(streams, adaptation_frames=4)
    metrics = ServeMetrics()
    registry = AdapterRegistry(estimator.model, metrics=metrics)
    datasets = {
        user: estimator.to_arrays(_as_dataset(frames))
        for user, frames in calibration.items()
    }
    registry.adapt_many(datasets, epochs=1)
    return registry, metrics, list(datasets)


@pytest.fixture()
def churning_registry(estimator, serve_dataset, tmp_path):
    """A lora registry whose hot tier (3) is half its cohort (6): after
    adaptation users 0-2 are warm, so gathers promote and demote."""
    streams = user_streams_from_dataset(serve_dataset, num_users=6, frames_per_user=8)
    calibration, _ = adaptation_split(streams, adaptation_frames=4)
    metrics = ServeMetrics()
    policy = AdapterPolicy(
        scope="lora", rank=2, epochs=1, hot_capacity=3, spill_dir=tmp_path / "spill"
    )
    registry = AdapterRegistry(estimator.model, policy=policy, metrics=metrics)
    datasets = {
        user: estimator.to_arrays(_as_dataset(frames))
        for user, frames in calibration.items()
    }
    registry.adapt_many(datasets)
    return registry, metrics, list(datasets)


#: every composition promotes a warm user; the third brings user 0 back
#: after the second demoted it
CHURN = [(0, 1), (2, 3), (0, 1, 4), (5, 2), (3,), (1, 0, 2)]


def _as_dataset(frames) -> PoseDataset:
    dataset = PoseDataset(name="calibration")
    dataset.extend(frames)
    return dataset


def _tiny_set(seed: int) -> ArrayDataset:
    """Four labelled frames for :func:`tiny_model`, distinct per seed, so
    users' heads differ under ``last`` as well as under ``lora``."""
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.normal(size=(4, 5, 2, 2)), rng.normal(size=(4, 3)))


class TestGatherCache:
    def test_gathered_values_match_per_user_parameters_bitwise(self, adapted_registry):
        registry, _, users = adapted_registry
        subset = [users[4], users[0], users[2]]  # order matters
        stacked = registry.gather(subset)
        for slot, tensors in enumerate(zip(*(registry.parameters_for(u) for u in subset))):
            np.testing.assert_array_equal(stacked[slot].data, np.stack(tensors))

    def test_churn_promotes_on_every_gather_within_the_hot_budget(self, churning_registry):
        """Every churn composition promotes a warm user, and each promotion's
        demotions bring the hot tier back to its capacity."""
        registry, metrics, users = churning_registry
        assert registry.tier_sizes() == {"hot": 3, "warm": 3, "cold": 0}
        for composition in CHURN:
            registry.gather([users[index] for index in composition])
        assert metrics.adapter_warm_hits == 11  # every gather promoted
        assert registry.tier_sizes()["hot"] == 3

    def test_rows_after_tier_moves_match_parameters_bitwise(self, churning_registry):
        registry, _, users = churning_registry
        expected = {user: [p.copy() for p in registry.parameters_for(user)] for user in users}
        # The four-user composition outgrows the hot tier of three.
        for composition in [*CHURN, (0, 1, 2, 3), *CHURN]:
            ids = [users[index] for index in composition]
            stacked = registry.gather(ids)
            for slot, tensor in enumerate(stacked):
                want = np.stack([expected[user][slot] for user in ids])
                assert tensor.data.dtype == want.dtype
                np.testing.assert_array_equal(tensor.data, want)

    def test_readaptation_of_existing_users_reaches_the_next_gather(
        self, adapted_registry, estimator, serve_dataset
    ):
        """Adapt-while-serving: the next gather after re-adapting existing
        users sees their new values."""
        registry, _, users = adapted_registry
        registry.gather(users[:3])
        streams = user_streams_from_dataset(serve_dataset, num_users=6, frames_per_user=8)
        calibration, _ = adaptation_split(streams, adaptation_frames=4)
        target = users[1]
        registry.adapt_many(
            {target: estimator.to_arrays(_as_dataset(calibration[target]))}, epochs=2
        )
        stacked = registry.gather([users[0], target])
        np.testing.assert_array_equal(
            stacked[0].data[1], registry.parameters_for(target)[0]
        )

    def test_readaptation_refreshes_a_memoized_composition(
        self, adapted_registry, estimator, serve_dataset
    ):
        """Rows rewritten in place must not be served from the composition
        memo: the same composition after a re-adaptation sees new values."""
        registry, _, users = adapted_registry
        before = registry.gather(users[:2])
        streams = user_streams_from_dataset(serve_dataset, num_users=6, frames_per_user=8)
        calibration, _ = adaptation_split(streams, adaptation_frames=4)
        registry.adapt_many(
            {users[1]: estimator.to_arrays(_as_dataset(calibration[users[1]]))}, epochs=2
        )
        after = registry.gather(users[:2])
        assert not np.array_equal(after[0].data[1], before[0].data[1])
        np.testing.assert_array_equal(after[0].data[1], registry.parameters_for(users[1])[0])

    @pytest.mark.parametrize("scope", ["last", "lora"])
    def test_a_served_batch_releases_its_stack(self, scope):
        """Nothing outlives the batch: once the caller drops a gather's
        tensors, their arrays are freed."""
        policy = AdapterPolicy(scope=scope, rank=2, epochs=1)
        registry = AdapterRegistry(tiny_model(), policy, gemm_block=8)
        registry.adapt_many({user: _tiny_set(user) for user in range(4)})
        stacked = registry.gather([2, 0, 3])
        refs = [weakref.ref(tensor.data) for tensor in stacked]
        del stacked
        gc.collect()
        assert all(ref() is None for ref in refs)


#: one step of a churn sequence: a gather of a composition (a user may
#: appear twice; ``None`` repeats the previous composition), a re-adaptation
#: on fresh data, a removal, or an export of a user's record imported
#: straight back
_COMPOSITION = st.lists(st.integers(0, 5), min_size=1, max_size=6)
_STEP = st.one_of(
    st.tuples(st.just("gather"), st.one_of(st.none(), _COMPOSITION)),
    st.tuples(st.just("adapt"), st.integers(0, 5)),
    st.tuples(st.just("remove"), st.integers(0, 5)),
    st.tuples(st.just("migrate"), st.integers(0, 5)),
)


class TestTierChurnProperty:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        scope=st.sampled_from(["last", "lora"]),
        rank=st.integers(1, 2),
        hot_capacity=st.integers(2, 3),
        cohort=st.integers(5, 6),
        steps=st.lists(_STEP, min_size=1, max_size=16),
    )
    def test_gathered_rows_are_each_users_parameters(
        self, scope, rank, hot_capacity, cohort, steps
    ):
        """Random churn over a hot tier smaller than the cohort: every
        gathered row is its user's parameters bitwise, a removed user raises
        ``KeyError``, and the hot and warm tiers hold exactly the live users."""
        with tempfile.TemporaryDirectory() as spill:
            policy = AdapterPolicy(
                scope=scope,
                rank=rank,
                epochs=1,
                hot_capacity=hot_capacity,
                spill_dir=Path(spill),
            )
            registry = AdapterRegistry(tiny_model(), policy, gemm_block=8)
            adapted = registry.adapt_many({user: _tiny_set(user) for user in range(cohort)})
            expected = {user: [p.copy() for p in params] for user, params in adapted.items()}
            ids = [0, 1]
            for action, arg in steps:
                if action == "gather":
                    if arg is not None:
                        ids = [user % cohort for user in arg]
                    if any(user not in expected for user in ids):
                        with pytest.raises(KeyError):
                            registry.gather(ids)
                    else:
                        stacked = registry.gather(ids)
                        for row, user in enumerate(ids):
                            for tensor, want in zip(stacked, registry.parameters_for(user)):
                                np.testing.assert_array_equal(tensor.data[row], want)
                            for tensor, want in zip(stacked, expected[user]):
                                np.testing.assert_array_equal(tensor.data[row], want)
                else:
                    user = arg % cohort
                    if action == "adapt":
                        params = registry.adapt_user(user, _tiny_set(100 + user), epochs=2)
                        expected[user] = [p.copy() for p in params]
                    elif action == "remove":
                        assert registry.remove(user) == (user in expected)
                        expected.pop(user, None)
                        assert registry.parameters_for(user) is None
                    else:
                        blob = registry.export_user_bytes(user)
                        assert (blob is None) == (user not in expected)
                        if blob is not None:
                            registry.import_user_bytes(user, blob)
                resident = registry.user_ids
                assert len(resident) == len(set(resident))
                assert set(resident) == set(expected)
                assert registry.tier_sizes()["cold"] == 0
