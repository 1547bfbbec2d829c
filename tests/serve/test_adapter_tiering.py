"""Hot/warm/cold adapter lifecycle: budgets, spill, promotion, restart.

The lifecycle contract: demotion and promotion round-trip losslessly (a
promoted user's parameters are bitwise what was demoted), tier traffic is
observable through :class:`ServeMetrics`, and — because spill files are
written through at adaptation time — adapter state survives a shard-process
crash and restart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.loader import ArrayDataset
from repro.dataset.sample import PoseDataset
from repro.serve import (
    AdapterPolicy,
    AdapterRegistry,
    PoseServer,
    ServeConfig,
    ServeMetrics,
    ShardCrashed,
    adaptation_split,
    user_streams_from_dataset,
)
from repro.serve.sharded import ProcessShardedPoseServer


@pytest.fixture(scope="module")
def calibration_sets(estimator, serve_dataset):
    arrays = estimator.prepare(serve_dataset[:32])
    return {
        f"user-{index}": ArrayDataset(
            arrays.features[index * 8 : (index + 1) * 8],
            arrays.labels[index * 8 : (index + 1) * 8],
        )
        for index in range(4)
    }


def _params_of(registry, users):
    return {
        user: [p.copy() for p in registry.parameters_for(user)] for user in users
    }


class TestTierBudgets:
    def test_demotion_and_promotion_round_trip_losslessly(
        self, estimator, calibration_sets, tmp_path
    ):
        policy = AdapterPolicy(
            scope="last", epochs=1, hot_capacity=2, spill_dir=tmp_path / "spill"
        )
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many(calibration_sets)
        users = list(calibration_sets)
        before = _params_of(registry, users)

        sizes = registry.tier_sizes()
        assert sizes == {"hot": 2, "warm": 2, "cold": 0}
        # The oldest users were demoted; touching them promotes losslessly.
        for user in users:
            for a, b in zip(before[user], registry.parameters_for(user)):
                np.testing.assert_array_equal(a, b)

    def test_lru_order_governs_demotion(self, estimator, calibration_sets, tmp_path):
        policy = AdapterPolicy(
            scope="last", epochs=1, hot_capacity=3, spill_dir=tmp_path / "spill"
        )
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many(calibration_sets)  # 4 users, last one demoted a peer
        users = list(calibration_sets)
        hot_before = [u for u in users if u in registry._params]
        # Serve the least-recently-used hot user, then adapt a new batch of
        # the demoted one: the untouched hot users age out first.
        registry.gather([hot_before[0]])
        assert registry.tier_sizes()["hot"] == 3

    def test_without_spill_dir_demotion_goes_cold(self, estimator, calibration_sets):
        policy = AdapterPolicy(scope="last", epochs=1, hot_capacity=2)
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many(calibration_sets)
        sizes = registry.tier_sizes()
        assert sizes["hot"] == 2 and sizes["warm"] == 0 and sizes["cold"] == 2
        cold_user = next(iter(registry._cold))
        assert cold_user not in registry
        with pytest.raises(KeyError):
            registry.gather([cold_user])

    def test_warm_capacity_drops_coldest_and_unlinks_spill(
        self, estimator, calibration_sets, tmp_path
    ):
        policy = AdapterPolicy(
            scope="last",
            epochs=1,
            hot_capacity=1,
            warm_capacity=1,
            spill_dir=tmp_path / "spill",
        )
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many(calibration_sets)
        sizes = registry.tier_sizes()
        assert sizes["hot"] == 1 and sizes["warm"] == 1
        assert sizes["cold"] == len(calibration_sets) - 2
        # Exactly hot + warm spill files remain on disk.
        assert len(list((tmp_path / "spill").glob("user-*.spill"))) == 2

    def test_remove_clears_every_tier_and_the_spill_file(
        self, estimator, calibration_sets, tmp_path
    ):
        policy = AdapterPolicy(scope="last", epochs=1, spill_dir=tmp_path / "spill")
        registry = AdapterRegistry(estimator.model, policy=policy)
        user = next(iter(calibration_sets))
        registry.adapt_user(user, calibration_sets[user])
        assert len(list((tmp_path / "spill").glob("user-*.spill"))) == 1
        assert registry.remove(user)
        assert user not in registry
        assert list((tmp_path / "spill").glob("user-*.spill")) == []
        assert not registry.remove(user)


class TestTierMetrics:
    def test_access_and_demotion_counters(self, estimator, calibration_sets, tmp_path):
        metrics = ServeMetrics()
        policy = AdapterPolicy(
            scope="last", epochs=1, hot_capacity=2, spill_dir=tmp_path / "spill"
        )
        registry = AdapterRegistry(estimator.model, policy=policy, metrics=metrics)
        registry.adapt_many(calibration_sets)  # 4 users -> 2 warm demotions
        users = list(calibration_sets)

        hot_user = [u for u in users if u in registry._params][0]
        warm_user = [u for u in users if u in registry._warm][0]
        registry.gather([hot_user])
        registry.gather([warm_user])  # promotes, demoting another hot user

        snapshot = metrics.snapshot()
        assert snapshot["adapter_demotions_warm"] >= 2
        assert snapshot["adapter_hot_hits"] == 1
        assert snapshot["adapter_warm_hits"] == 1
        assert snapshot["adapter_cold_misses"] == 0
        assert metrics.adapter_tier_hit_rate == 1.0

    def test_cold_miss_recorded_distinctly(self, estimator, calibration_sets):
        metrics = ServeMetrics()
        policy = AdapterPolicy(scope="last", epochs=1, hot_capacity=1)
        registry = AdapterRegistry(estimator.model, policy=policy, metrics=metrics)
        registry.adapt_many(calibration_sets)
        cold_user = next(iter(registry._cold))
        with pytest.raises(KeyError):
            registry.gather([cold_user])
        snapshot = metrics.snapshot()
        assert snapshot["adapter_cold_misses"] == 1
        assert snapshot["adapter_demotions_cold"] == len(calibration_sets) - 1
        assert metrics.adapter_tier_hit_rate == 0.0

    def test_prometheus_exposes_tier_counters_and_hit_rate(self):
        metrics = ServeMetrics()
        metrics.record_adapter_access("hot")
        metrics.record_adapter_access("cold")
        metrics.record_adapter_demotion("warm")
        text = metrics.to_prometheus()
        assert "fuse_serve_adapter_hot_hits_total 1" in text
        assert "fuse_serve_adapter_cold_misses_total 1" in text
        assert "fuse_serve_adapter_demotions_warm_total 1" in text
        assert "fuse_serve_adapter_tier_hit_rate 0.5" in text

    def test_unknown_tier_rejected(self):
        metrics = ServeMetrics()
        with pytest.raises(ValueError):
            metrics.record_adapter_access("lukewarm")
        with pytest.raises(ValueError):
            metrics.record_adapter_demotion("hot")

    def test_server_snapshot_reports_tier_gauges(self, estimator, calibration_sets):
        server = PoseServer(
            estimator, ServeConfig(), policy=AdapterPolicy(scope="last", epochs=1)
        )
        user = next(iter(calibration_sets))
        server.registry.adapt_user(user, calibration_sets[user])
        snapshot = server.metrics_snapshot()
        assert snapshot["adapter_tier_hot"] == 1
        assert snapshot["adapter_tier_warm"] == 0
        assert snapshot["adapter_tier_cold"] == 0


class TestRestartReattach:
    def test_new_registry_reattaches_spilled_users_losslessly(
        self, estimator, calibration_sets, tmp_path
    ):
        policy = AdapterPolicy(scope="last", epochs=1, spill_dir=tmp_path / "spill")
        first = AdapterRegistry(estimator.model, policy=policy)
        first.adapt_many(calibration_sets)
        users = list(calibration_sets)
        before = _params_of(first, users)

        second = AdapterRegistry(estimator.model, policy=policy)
        assert second.tier_sizes()["warm"] == len(users)
        for user in users:
            assert user in second
            for a, b in zip(before[user], second.parameters_for(user)):
                np.testing.assert_array_equal(a, b)

    def test_reattach_validates_policy_compatibility(
        self, estimator, calibration_sets, tmp_path
    ):
        spill = tmp_path / "spill"
        first = AdapterRegistry(
            estimator.model,
            policy=AdapterPolicy(scope="lora", rank=4, epochs=1, spill_dir=spill),
        )
        user = next(iter(calibration_sets))
        first.adapt_user(user, calibration_sets[user])
        with pytest.raises(ValueError, match="rank-4"):
            AdapterRegistry(
                estimator.model,
                policy=AdapterPolicy(scope="lora", rank=8, epochs=1, spill_dir=spill),
            )

    @pytest.mark.slow
    def test_shard_process_restart_keeps_adapted_users(
        self, estimator, serve_dataset, tmp_path
    ):
        """PR-4 follow-up: a crashed shard's restart re-attaches its spill
        directory, so previously adapted users keep their personal
        parameters — post-restart predictions are bitwise what they were
        before the crash."""
        streams = user_streams_from_dataset(serve_dataset, num_users=6, frames_per_user=8)
        calibration, serving = adaptation_split(streams, adaptation_frames=6)
        policy = AdapterPolicy(
            scope="lora", rank=2, epochs=1, spill_dir=tmp_path / "spill"
        )
        with ProcessShardedPoseServer(
            estimator,
            num_shards=2,
            config=ServeConfig(max_batch_size=4),
            policy=policy,
        ) as server:
            user = next(iter(serving))
            dataset = PoseDataset(name="calibration")
            dataset.extend(calibration[user])
            server.adapt_user(user, dataset)
            before = server.submit(user, serving[user][0].cloud)

            victim = server.shard_index(user)
            server.workers[victim]._process.kill()
            with pytest.raises(ShardCrashed):
                server.submit(user, serving[user][0].cloud)
            assert server.restarts == 1

            after = server.submit(user, serving[user][0].cloud)
            np.testing.assert_array_equal(before, after)
