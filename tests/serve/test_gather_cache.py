"""The adapter gather-cache actually hits on the steady-state path.

The original composition-keyed LRU never hit under realistic traffic: with
50 users and 64-wide micro-batches, batch boundaries drift across the
cohort and no composition repeats inside the LRU window — the benchmark
recorded ``param_cache_hit_rate: 0.0``.  The registry now keeps a
hot-tier parameter stack; any composition row-indexes it, and tier moves
rewrite single rows in place, so the only miss is a stack rebuild after the
cohort changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.sample import PoseDataset
from repro.serve import (
    AdapterPolicy,
    AdapterRegistry,
    PoseServer,
    ServeConfig,
    ServeMetrics,
    adaptation_split,
    replay_users,
    user_streams_from_dataset,
)


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
#: after the second reused its row
CHURN = [(0, 1), (2, 3), (0, 1, 4), (5, 2), (3,), (1, 0, 2)]


def _as_dataset(frames) -> PoseDataset:
    dataset = PoseDataset(name="calibration")
    dataset.extend(frames)
    return dataset


class TestGatherCache:
    def test_shifting_compositions_hit_after_first_build(self, adapted_registry):
        """Drifting batch boundaries — every batch a different cohort
        slice — must not defeat the cache."""
        registry, metrics, users = adapted_registry
        compositions = [users[:3], users[1:4], users[2:6], users[:2], users[3:]]
        for composition in compositions:
            registry.gather(composition)
        assert metrics.param_cache_misses == 1  # the one stack build
        assert metrics.param_cache_hits == len(compositions) - 1

    def test_exact_repeat_returns_memoized_tensors(self, adapted_registry):
        registry, _, users = adapted_registry
        first = registry.gather(users[:3])
        again = registry.gather(users[:3])
        assert all(a is b for a, b in zip(first, again))

    def test_gathered_values_match_per_user_parameters_bitwise(self, adapted_registry):
        registry, _, users = adapted_registry
        subset = [users[4], users[0], users[2]]  # order matters
        stacked = registry.gather(subset)
        for slot, tensors in enumerate(zip(*(registry.parameters_for(u) for u in subset))):
            np.testing.assert_array_equal(stacked[slot].data, np.stack(tensors))

    def test_registry_change_invalidates_the_stack(self, adapted_registry):
        registry, metrics, users = adapted_registry
        registry.gather(users[:2])
        registry.remove(users[-1])
        registry.gather(users[:2])
        assert metrics.param_cache_misses == 2  # rebuilt once after remove

    def test_tier_moves_rewrite_rows_instead_of_rebuilding(self, churning_registry):
        """A promotion writes the row its demotion freed: churning the hot
        tier keeps the first build (each promoting gather rebuilt it)."""
        registry, metrics, users = churning_registry
        assert registry.tier_sizes() == {"hot": 3, "warm": 3, "cold": 0}
        for composition in CHURN:
            registry.gather([users[index] for index in composition])
        assert metrics.adapter_warm_hits == 11  # every gather promoted
        assert metrics.param_cache_misses == 1
        assert metrics.param_cache_hits == len(CHURN) - 1
        assert registry.tier_sizes()["hot"] == 3

    def test_rows_after_tier_moves_match_parameters_bitwise(self, churning_registry):
        registry, metrics, users = churning_registry
        expected = {user: [p.copy() for p in registry.parameters_for(user)] for user in users}
        # The four-user composition outgrows the hot tier: its last
        # promotion finds no free row and the stack is rebuilt.
        for composition in [*CHURN, (0, 1, 2, 3), *CHURN]:
            ids = [users[index] for index in composition]
            stacked = registry.gather(ids)
            for slot, tensor in enumerate(stacked):
                want = np.stack([expected[user][slot] for user in ids])
                assert tensor.data.dtype == want.dtype
                np.testing.assert_array_equal(tensor.data, want)
        assert metrics.param_cache_misses == 2

    def test_readaptation_of_existing_users_keeps_the_stack_hot(
        self, adapted_registry, estimator, serve_dataset
    ):
        """Adapt-while-serving: re-adapting existing users overwrites rows
        in place — no rebuild miss — and gathers see the new values."""
        registry, metrics, users = adapted_registry
        registry.gather(users[:3])  # builds the stack (1 miss)
        streams = user_streams_from_dataset(serve_dataset, num_users=6, frames_per_user=8)
        calibration, _ = adaptation_split(streams, adaptation_frames=4)
        target = users[1]
        registry.adapt_many(
            {target: estimator.to_arrays(_as_dataset(calibration[target]))}, epochs=2
        )
        stacked = registry.gather([users[0], target])
        assert metrics.param_cache_misses == 1  # still only the first build
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

    def test_steady_state_replay_hit_rate_is_high(self, estimator, serve_dataset):
        """The end-to-end regression: a 10-user replay with drifting 8-wide
        batches keeps a hot cache (it pinned at 0.0 before)."""
        streams = user_streams_from_dataset(serve_dataset, num_users=10, frames_per_user=8)
        calibration, serving = adaptation_split(streams, adaptation_frames=4)
        server = PoseServer(estimator, ServeConfig(max_batch_size=8))
        server.adapt_users(
            {user: _as_dataset(frames) for user, frames in calibration.items()},
            epochs=1,
        )
        result = replay_users(server, serving)
        assert result.metrics["param_cache_misses"] == 1
        assert result.metrics["param_cache_hit_rate"] > 0.5
