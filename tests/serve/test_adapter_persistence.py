"""Round-trip persistence of per-user adapted parameter sets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.loader import ArrayDataset
from repro.serve import AdapterPolicy, AdapterRegistry


@pytest.fixture(scope="module")
def calibration_sets(estimator, serve_dataset):
    """Small per-user labelled array sets derived from the shared dataset."""
    arrays = estimator.prepare(serve_dataset[:24])
    return {
        "alice": ArrayDataset(arrays.features[:8], arrays.labels[:8]),
        "bob": ArrayDataset(arrays.features[8:16], arrays.labels[8:16]),
        7: ArrayDataset(arrays.features[16:24], arrays.labels[16:24]),
    }


def _assert_registries_equal(a: AdapterRegistry, b: AdapterRegistry):
    assert a.user_ids == b.user_ids
    for user in a.user_ids:
        for param_a, param_b in zip(a.parameters_for(user), b.parameters_for(user)):
            np.testing.assert_array_equal(param_a, param_b)


class TestRoundTrip:
    @pytest.mark.parametrize("scope", ["all", "last"])
    def test_save_load_round_trip(self, estimator, calibration_sets, tmp_path, scope):
        policy = AdapterPolicy(epochs=2, scope=scope)
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many(calibration_sets)
        path = registry.save(tmp_path / f"adapters_{scope}.npz")

        restored = AdapterRegistry(estimator.model, policy=policy)
        loaded_users = restored.load(path)
        assert set(loaded_users) == set(calibration_sets)
        _assert_registries_equal(registry, restored)

    def test_restored_registry_serves_identically(self, estimator, calibration_sets, tmp_path):
        policy = AdapterPolicy(epochs=2, scope="last")
        registry = AdapterRegistry(estimator.model, policy=policy, gemm_block=16)
        registry.adapt_many(calibration_sets)
        path = registry.save(tmp_path / "adapters")

        restored = AdapterRegistry(estimator.model, policy=policy, gemm_block=16)
        restored.load(path)
        users = list(calibration_sets)
        for original, reloaded in zip(registry.gather(users), restored.gather(users)):
            np.testing.assert_array_equal(original.data, reloaded.data)

    def test_load_replaces_by_default_and_merges_on_request(
        self, estimator, calibration_sets, tmp_path
    ):
        policy = AdapterPolicy(epochs=1, scope="last")
        first = AdapterRegistry(estimator.model, policy=policy)
        first.adapt_many({"alice": calibration_sets["alice"]})
        path = first.save(tmp_path / "alice.npz")

        second = AdapterRegistry(estimator.model, policy=policy)
        second.adapt_many({"bob": calibration_sets["bob"]})
        second.load(path)  # replace
        assert second.user_ids == ["alice"]

        third = AdapterRegistry(estimator.model, policy=policy)
        third.adapt_many({"bob": calibration_sets["bob"]})
        third.load(path, replace=False)  # merge
        assert set(third.user_ids) == {"bob", "alice"}

    def test_load_bumps_version_and_invalidates_gather_cache(
        self, estimator, calibration_sets, tmp_path
    ):
        policy = AdapterPolicy(epochs=1, scope="last")
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many(calibration_sets)
        registry.gather(["alice", "bob"])  # populate the gather cache
        version = registry.version
        path = registry.save(tmp_path / "all.npz")
        registry.load(path)
        assert registry.version == version + 1
        assert registry._gather_cache == {}


class TestErrorHandling:
    def test_scope_mismatch_rejected(self, estimator, calibration_sets, tmp_path):
        last = AdapterRegistry(estimator.model, policy=AdapterPolicy(epochs=1, scope="last"))
        last.adapt_many({"alice": calibration_sets["alice"]})
        path = last.save(tmp_path / "last.npz")
        all_scope = AdapterRegistry(estimator.model, policy=AdapterPolicy(epochs=1, scope="all"))
        with pytest.raises(ValueError, match="scope"):
            all_scope.load(path)

    def test_non_persistable_user_id_rejected(self, estimator, calibration_sets, tmp_path):
        policy = AdapterPolicy(epochs=1, scope="last")
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many({("tuple", "id"): calibration_sets["alice"]})
        with pytest.raises(TypeError, match="user ids"):
            registry.save(tmp_path / "bad.npz")

    def test_foreign_checkpoint_rejected(self, estimator, tmp_path):
        from repro.nn.serialization import save_state

        path = save_state({"weights": np.zeros(3)}, tmp_path / "foreign.npz")
        registry = AdapterRegistry(estimator.model, policy=AdapterPolicy(epochs=1, scope="last"))
        with pytest.raises(ValueError, match="checkpoint"):
            registry.load(path)

    def test_int_user_ids_survive_the_round_trip(self, estimator, calibration_sets, tmp_path):
        policy = AdapterPolicy(epochs=1, scope="last")
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many({7: calibration_sets[7]})
        path = registry.save(tmp_path / "int_user.npz")
        restored = AdapterRegistry(estimator.model, policy=policy)
        assert restored.load(path) == [7]
        assert 7 in restored
        assert "7" not in restored
