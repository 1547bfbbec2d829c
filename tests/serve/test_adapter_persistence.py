"""Persistence of per-user adapted parameter sets: spill re-attach and records.

A registry with a spill directory is its own checkpoint: every adaptation
is written through to the user's spill record, and a fresh registry on the
same directory re-attaches every user.  Migration bytes are the same
CRC-checked record in memory (``export_user_bytes`` / ``import_user_bytes``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.loader import ArrayDataset
from repro.nn.serialization import record_bytes, save_state
from repro.serve import AdapterPolicy, AdapterRegistry

from .conftest import tiny_dataset, tiny_model


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
    assert sorted(map(repr, a.user_ids)) == sorted(map(repr, b.user_ids))
    for user in a.user_ids:
        params_a, params_b = a.parameters_for(user), b.parameters_for(user)
        assert len(params_a) == len(params_b)
        for param_a, param_b in zip(params_a, params_b):
            np.testing.assert_array_equal(param_a, param_b)


class TestRoundTrip:
    @pytest.mark.parametrize("scope", ["all", "last"])
    def test_save_load_round_trip(self, estimator, calibration_sets, tmp_path, scope):
        """A fresh registry on the same spill directory re-attaches every
        user, warm, with bitwise the parameters that were adapted."""
        policy = AdapterPolicy(epochs=2, scope=scope, spill_dir=tmp_path / scope)
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many(calibration_sets)

        restored = AdapterRegistry(estimator.model, policy=policy)
        assert restored.tier_sizes() == {"hot": 0, "warm": len(calibration_sets), "cold": 0}
        _assert_registries_equal(registry, restored)

    def test_restored_registry_serves_identically(self, estimator, calibration_sets, tmp_path):
        policy = AdapterPolicy(epochs=2, scope="last", spill_dir=tmp_path / "spill")
        registry = AdapterRegistry(estimator.model, policy=policy, gemm_block=16)
        registry.adapt_many(calibration_sets)

        restored = AdapterRegistry(estimator.model, policy=policy, gemm_block=16)
        users = list(calibration_sets)
        for original, reloaded in zip(registry.gather(users), restored.gather(users)):
            np.testing.assert_array_equal(original.data, reloaded.data)

    def test_import_reaches_the_next_gather(self, estimator, calibration_sets):
        """After ``import_user_bytes`` the next gather's row is the
        imported parameters bitwise, even for a composition served before."""
        policy = AdapterPolicy(epochs=1, scope="last")
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many(calibration_sets)
        before = registry.gather(["alice", "bob"])
        source = AdapterRegistry(estimator.model, policy=AdapterPolicy(epochs=2, scope="last"))
        source.adapt_many({"alice": calibration_sets["alice"]})
        registry.import_user_bytes("alice", source.export_user_bytes("alice"))
        gathered = registry.gather(["alice", "bob"])
        assert not np.array_equal(gathered[0].data[0], before[0].data[0])
        for tensor, imported in zip(gathered, source.parameters_for("alice")):
            np.testing.assert_array_equal(tensor.data[0], imported)


class TestErrorHandling:
    def test_scope_mismatch_rejected(self, estimator, calibration_sets, tmp_path):
        last = AdapterRegistry(estimator.model, policy=AdapterPolicy(epochs=1, scope="last"))
        last.adapt_many({"alice": calibration_sets["alice"]})
        all_scope = AdapterRegistry(estimator.model, policy=AdapterPolicy(epochs=1, scope="all"))
        with pytest.raises(ValueError, match="scope"):
            all_scope.import_user_bytes("alice", last.export_user_bytes("alice"))
        assert len(all_scope) == 0

    def test_non_persistable_user_id_rejected(self, estimator, calibration_sets, tmp_path):
        policy = AdapterPolicy(epochs=1, scope="last")
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many({("tuple", "id"): calibration_sets["alice"]})
        with pytest.raises(TypeError, match="user ids"):
            registry.export_user_bytes(("tuple", "id"))

    def test_foreign_checkpoint_rejected(self, estimator, tmp_path):
        """A record that is not a user's adapter state, and bytes that are
        not a record at all (a model checkpoint), are both refused."""
        registry = AdapterRegistry(estimator.model, policy=AdapterPolicy(epochs=1, scope="last"))
        with pytest.raises(ValueError, match="not an adapter-registry record"):
            registry.import_user_bytes("alice", record_bytes({"weights": np.zeros(3)}))
        checkpoint = save_state({"weights": np.zeros(3)}, tmp_path / "foreign.npz")
        with pytest.raises(ValueError, match="magic"):
            registry.import_user_bytes("alice", checkpoint.read_bytes())
        assert len(registry) == 0

    def test_record_of_another_model_is_refused(self, estimator, calibration_sets):
        """A record whose scope and format match but whose tensors come from
        another model is refused before it can reach the gather stack, where
        one wrong shape would fail every user's gather."""
        policy = AdapterPolicy(epochs=1, scope="last")
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many({"bob": calibration_sets["bob"]})
        other = AdapterRegistry(tiny_model(), policy=policy)
        other.adapt_user("alice", tiny_dataset())
        with pytest.raises(ValueError, match="shapes"):
            registry.import_user_bytes("alice", other.export_user_bytes("alice"))
        assert registry.user_ids == ["bob"]
        assert registry.gather(["bob"])[0].shape[0] == 1

    @pytest.mark.parametrize("user", [5, ["int", "7"], ["str"], ["int", True], ["float", 1.5]])
    def test_malformed_user_metadata_is_refused(self, user):
        """A CRC-valid record whose ``user`` is not what the registry writes
        raises ``ValueError`` like every other bad record."""
        policy = AdapterPolicy(scope="last", epochs=1)
        source = AdapterRegistry(tiny_model(), policy)
        source.adapt_user("alice", tiny_dataset())
        state = {f"p{slot:03d}": p for slot, p in enumerate(source.parameters_for("alice"))}
        record = record_bytes(state, {"format": 2, "scope": "last", "user": user})
        registry = AdapterRegistry(tiny_model(), policy)
        with pytest.raises(ValueError, match="malformed user id"):
            registry.import_user_bytes("alice", record)
        assert len(registry) == 0

    def test_int_user_ids_survive_the_round_trip(self, estimator, calibration_sets, tmp_path):
        policy = AdapterPolicy(epochs=1, scope="last", spill_dir=tmp_path / "spill")
        registry = AdapterRegistry(estimator.model, policy=policy)
        registry.adapt_many({7: calibration_sets[7]})
        restored = AdapterRegistry(estimator.model, policy=policy)
        assert restored.user_ids == [7]
        assert 7 in restored
        assert "7" not in restored
        moved = AdapterRegistry(estimator.model, policy=AdapterPolicy(epochs=1, scope="last"))
        moved.import_user_bytes(7, registry.export_user_bytes(7))
        assert moved.user_ids == [7]


class TestMigratedBytes:
    @pytest.mark.parametrize("scope", ["all", "last", "lora"])
    def test_every_flip_and_truncation_is_refused_before_the_registry_changes(
        self, scope, tmp_path
    ):
        """Every single-byte flip and every truncation of an exported record
        raises ``ValueError`` from ``import_user_bytes``, and the importing
        registry — users, parameters, spill files — is untouched."""
        model, data = tiny_model(), tiny_dataset()
        source = AdapterRegistry(model, AdapterPolicy(scope=scope, rank=1, epochs=1))
        source.adapt_many({"alice": data, "bob": data})
        blob = source.export_user_bytes("alice")

        policy = AdapterPolicy(scope=scope, rank=1, epochs=1, spill_dir=tmp_path / "spill")
        target = AdapterRegistry(model, policy)
        target.import_user_bytes("bob", source.export_user_bytes("bob"))
        spill = {path.name: path.read_bytes() for path in (tmp_path / "spill").iterdir()}
        bob = [p.copy() for p in target.parameters_for("bob")]

        damaged = [blob[:length] for length in range(len(blob))]
        for position in range(len(blob)):
            flipped = bytearray(blob)
            flipped[position] ^= 0xFF
            damaged.append(bytes(flipped))
        for candidate in damaged:
            with pytest.raises(ValueError):
                target.import_user_bytes("alice", candidate)

        assert target.user_ids == ["bob"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "spill").iterdir()} == spill
        for kept, before in zip(target.parameters_for("bob"), bob):
            np.testing.assert_array_equal(kept, before)
        target.import_user_bytes("alice", blob)  # the undamaged record installs
        for got, expected in zip(target.parameters_for("alice"), source.parameters_for("alice")):
            np.testing.assert_array_equal(got, expected)
