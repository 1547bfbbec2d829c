"""Corrupted adapter spill files: CRC verification and quarantine.

The degradation contract: a spill record that fails verification is moved
aside (``.quarantined``), counted, logged once, and the user transparently
re-onboards from the base model — serving never crashes and never silently
loads garbage parameters.  Migrated bytes are the same record, checked the
same way; leftover ``.npz`` spill files of the earlier layout are not read,
and spill writes stay atomic.
"""

from __future__ import annotations

import json
import logging
import zlib

import numpy as np
import pytest

from repro.dataset.loader import ArrayDataset
from repro.nn.serialization import load_record, save_record, save_state
from repro.serve import (
    AdapterPolicy,
    AdapterRegistry,
    FaultInjector,
    FaultPlan,
    FaultRule,
    PoseServer,
    ServeConfig,
    ServeMetrics,
)

from ..conftest import tiny_dataset, tiny_model


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


def _spilled_registry(estimator, calibration_sets, spill_dir, users=2):
    """A registry whose first adapted user has been demoted to warm."""
    policy = AdapterPolicy(scope="last", epochs=1, hot_capacity=1, spill_dir=spill_dir)
    registry = AdapterRegistry(estimator.model, policy=policy, metrics=ServeMetrics())
    for user in list(calibration_sets)[:users]:
        registry.adapt_user(user, calibration_sets[user])
    return registry


class TestChecksums:
    def test_spill_record_ends_with_a_crc32_trailer(
        self, estimator, calibration_sets, tmp_path
    ):
        registry = _spilled_registry(estimator, calibration_sets, tmp_path / "spill")
        warm_user = next(iter(calibration_sets))
        path = registry._spill_paths[warm_user]
        data = path.read_bytes()
        assert path.suffix == ".spill"
        assert int.from_bytes(data[-4:], "little") == zlib.crc32(data[:-4])
        # the CRC covers the header too: a flipped metadata byte fails it
        at = data.index(b'"scope"') + 1
        path.write_bytes(data[:at] + bytes([data[at] ^ 0x20]) + data[at + 1 :])
        with pytest.raises(ValueError, match="CRC32"):
            load_record(path)

    def test_atomic_write_leaves_no_temporaries(self, estimator, calibration_sets, tmp_path):
        spill = tmp_path / "spill"
        _spilled_registry(estimator, calibration_sets, spill)
        leftovers = [p for p in spill.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_leftover_npz_spill_files_are_not_read(
        self, estimator, calibration_sets, tmp_path
    ):
        """A ``user-*.npz`` spill file of the earlier layout is neither
        attached, converted nor quarantined: its user re-onboards."""
        spill = tmp_path / "spill"
        registry = _spilled_registry(estimator, calibration_sets, spill)
        warm_user = next(iter(calibration_sets))
        record = registry._spill_paths[warm_user]
        state, metadata = load_record(record)
        leftover = save_state(state, record.with_suffix(".npz"), metadata=metadata)
        record.unlink()

        metrics = ServeMetrics()
        reattached = AdapterRegistry(estimator.model, policy=registry.policy, metrics=metrics)
        assert warm_user not in reattached
        assert reattached.tier_sizes() == {"hot": 0, "warm": 1, "cold": 0}
        assert leftover.exists()
        assert metrics.spill_quarantined == 0


class TestQuarantine:
    def test_corrupt_spill_quarantines_on_promotion(
        self, estimator, calibration_sets, tmp_path
    ):
        registry = _spilled_registry(estimator, calibration_sets, tmp_path / "spill")
        warm_user, hot_user = list(calibration_sets)[:2]
        assert registry.tier_sizes() == {"hot": 1, "warm": 1, "cold": 0}
        path = registry._spill_paths[warm_user]
        FaultInjector().corrupt_file(path)

        assert registry.parameters_for(warm_user) is None  # no raise: degrade
        assert warm_user not in registry
        assert registry.tier_sizes()["cold"] == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()
        assert registry.metrics.spill_quarantined == 1
        # the cohabiting hot user is untouched
        assert registry.parameters_for(hot_user) is not None

    def test_spill_of_another_model_is_quarantined_on_promotion(
        self, estimator, calibration_sets, tmp_path
    ):
        """A spill directory reused under another model (same scope) attaches
        by header, but the wrong-shape record is quarantined at promotion;
        the user re-onboards and the other users keep serving."""
        spill = tmp_path / "spill"
        registry = _spilled_registry(estimator, calibration_sets, spill)
        warm_user, hot_user = list(calibration_sets)[:2]
        foreign = AdapterRegistry(tiny_model(), policy=AdapterPolicy(scope="last"))
        foreign.adapt_user(warm_user, tiny_dataset())
        path = registry._spill_paths[warm_user]
        path.write_bytes(foreign.export_user_bytes(warm_user))  # same user, format, scope

        assert registry.parameters_for(warm_user) is None
        assert registry.tier_sizes()["cold"] == 1
        assert path.with_name(path.name + ".quarantined").exists()
        assert registry.metrics.spill_quarantined == 1
        assert registry.gather([hot_user])[0].shape[0] == 1

    def test_unreadable_spill_is_quarantined_at_attach(
        self, estimator, calibration_sets, tmp_path
    ):
        spill = tmp_path / "spill"
        registry = _spilled_registry(estimator, calibration_sets, spill)
        warm_user = next(iter(calibration_sets))
        path = registry._spill_paths[warm_user]
        path.write_bytes(path.read_bytes()[:40])  # torn mid-write by a crash

        metrics = ServeMetrics()
        reattached = AdapterRegistry(
            estimator.model, policy=registry.policy, metrics=metrics
        )
        assert warm_user not in reattached
        assert path.with_name(path.name + ".quarantined").exists()
        assert metrics.spill_quarantined == 1

    def test_malformed_user_id_is_quarantined_at_attach(
        self, estimator, calibration_sets, tmp_path
    ):
        """A spill header whose ``user`` the registry never writes is set
        aside at attach like an unreadable file; the restart goes on."""
        spill = tmp_path / "spill"
        registry = _spilled_registry(estimator, calibration_sets, spill)
        warm_user, hot_user = list(calibration_sets)[:2]
        path = registry._spill_paths[warm_user]
        state, metadata = load_record(path)
        save_record(state, path, metadata={**metadata, "user": 5})

        metrics = ServeMetrics()
        reattached = AdapterRegistry(estimator.model, policy=registry.policy, metrics=metrics)
        assert reattached.user_ids == [hot_user]
        assert path.with_name(path.name + ".quarantined").exists()
        assert metrics.spill_quarantined == 1

    def test_quarantined_files_are_not_reattached(
        self, estimator, calibration_sets, tmp_path
    ):
        registry = _spilled_registry(estimator, calibration_sets, tmp_path / "spill")
        warm_user = next(iter(calibration_sets))
        FaultInjector().corrupt_file(registry._spill_paths[warm_user])
        assert registry.parameters_for(warm_user) is None

        again = AdapterRegistry(estimator.model, policy=registry.policy)
        assert warm_user not in again

    def test_import_user_bytes_verifies_the_checksum(
        self, estimator, calibration_sets, tmp_path
    ):
        registry = _spilled_registry(estimator, calibration_sets, tmp_path / "spill")
        user = next(iter(calibration_sets))
        blob = registry.export_user_bytes(user)
        mangled = FaultInjector.corrupt_bytes(blob, seed=1)
        fresh = AdapterRegistry(estimator.model, policy=registry.policy)
        with pytest.raises(ValueError, match="CRC32"):
            fresh.import_user_bytes(user, mangled)
        fresh.import_user_bytes(user, blob)
        assert user in fresh

    def test_export_user_bytes_quarantines_a_corrupt_warm_spill(
        self, estimator, calibration_sets, tmp_path
    ):
        registry = _spilled_registry(estimator, calibration_sets, tmp_path / "spill")
        warm_user = next(iter(calibration_sets))
        path = registry._spill_paths[warm_user]
        FaultInjector().corrupt_file(path)

        assert registry.export_user_bytes(warm_user) is None  # nothing ships
        assert warm_user not in registry
        assert registry.tier_sizes()["cold"] == 1
        assert path.with_name(path.name + ".quarantined").exists()
        assert registry.metrics.spill_quarantined == 1

    def test_warm_export_is_its_spill_file_byte_for_byte(
        self, estimator, calibration_sets, tmp_path
    ):
        """A warm user's export is the checked spill record as read, with no
        promotion; a hot user's export, serialized from memory, is also the
        record its write-through spill file holds."""
        registry = _spilled_registry(estimator, calibration_sets, tmp_path / "spill")
        warm_user, hot_user = list(calibration_sets)[:2]
        for user in (warm_user, hot_user):
            spill = registry._spill_paths[user].read_bytes()
            assert registry.export_user_bytes(user) == spill
        assert registry.tier_sizes()["warm"] == 1
        assert registry.metrics.spill_quarantined == 0


class TestQuarantineLog:
    def test_each_quarantine_logs_one_json_line(
        self, estimator, calibration_sets, tmp_path, caplog
    ):
        metrics = ServeMetrics()
        policy = AdapterPolicy(
            scope="last", epochs=1, hot_capacity=1, spill_dir=tmp_path / "spill"
        )
        registry = AdapterRegistry(estimator.model, policy=policy, metrics=metrics)
        registry.adapt_many(calibration_sets)
        corrupt, missing, torn = [u for u in calibration_sets if u in registry._warm]
        paths = {user: registry._spill_paths[user] for user in (corrupt, missing, torn)}
        FaultInjector().corrupt_file(paths[corrupt])
        paths[missing].unlink()  # the quarantine rename fails too, and says so
        paths[torn].write_bytes(paths[torn].read_bytes()[:40])

        with caplog.at_level(logging.WARNING, logger="repro.serve.adapters"):
            assert registry.parameters_for(corrupt) is None
            assert registry.parameters_for(missing) is None
            AdapterRegistry(estimator.model, policy=policy, metrics=metrics)  # attach

        lines = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.serve.adapters"
        ]
        assert len(lines) == metrics.spill_quarantined == 3
        assert {line["event"] for line in lines} == {"spill_quarantined"}
        assert [line["user"] for line in lines] == [corrupt, missing, None]
        assert [line["path"] for line in lines] == [
            str(paths[user]) for user in (corrupt, missing, torn)
        ]
        assert "CRC32" in lines[0]["reason"]
        assert lines[1]["reason"].startswith("FileNotFoundError")
        assert "rename_error" in lines[1] and "rename_error" not in lines[0]
        assert "truncated" in lines[2]["reason"]


class TestTransparentReonboarding:
    def test_server_serves_base_model_after_quarantine(
        self, estimator, serve_dataset, tmp_path
    ):
        """The end-to-end degradation: a scheduled ``corrupt_spill`` fault
        mangles the first spill write; the user's next request silently
        falls back to the shared base parameters — same prediction as a
        never-adapted server — with only the counter betraying the fault."""
        from repro.serve import user_streams_from_dataset

        streams = user_streams_from_dataset(serve_dataset, num_users=4, frames_per_user=2)
        users = list(streams)
        plan = FaultPlan(rules=(FaultRule(op="corrupt_spill", target="spill", at=0),))
        policy = AdapterPolicy(
            scope="last", epochs=1, hot_capacity=1, spill_dir=tmp_path / "spill"
        )
        config = ServeConfig(max_batch_size=4, adapter=policy, fault_plan=plan)
        server = PoseServer(estimator, config)
        baseline = PoseServer(estimator, ServeConfig(max_batch_size=4))

        arrays = estimator.prepare(serve_dataset[:16])
        victim, evictor = users[0], users[1]
        server.adapt_user(victim, ArrayDataset(arrays.features, arrays.labels))
        server.adapt_user(evictor, ArrayDataset(arrays.features, arrays.labels))
        assert server.registry.tier_sizes()["warm"] == 1  # victim demoted

        frame = streams[victim][0].cloud
        got = server.submit(victim, frame)
        np.testing.assert_array_equal(got, baseline.submit(victim, frame))
        assert victim not in server.registry
        assert server.metrics.spill_quarantined == 1
        assert server.fault_injector.fired_count("corrupt_spill", "spill") == 1
        # the survivor still answers with its adapted parameters
        assert server.registry.parameters_for(evictor) is not None
