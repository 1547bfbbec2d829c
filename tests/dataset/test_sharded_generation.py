"""Shard transparency of synthetic dataset generation.

The runtime contract: ``workers`` changes the wall clock, never the bits.
Generation derives every session's randomness from the session coordinates
(:func:`repro.runtime.rng_for_key`), so the shard layout cannot reorder any
draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.synthetic import (
    SyntheticDatasetConfig,
    SyntheticDatasetGenerator,
    generate_dataset,
)
from repro.runtime import ExecutionPlan


@pytest.fixture(scope="module")
def small_config():
    return SyntheticDatasetConfig(
        subject_ids=(1, 2),
        movement_names=("squat", "right_limb_extension"),
        seconds_per_pair=2.0,
        seed=31,
    )


def _assert_datasets_identical(a, b):
    assert len(a) == len(b)
    for frame_a, frame_b in zip(a, b):
        np.testing.assert_array_equal(frame_a.cloud.points, frame_b.cloud.points)
        np.testing.assert_array_equal(frame_a.joints, frame_b.joints)
        assert frame_a.subject_id == frame_b.subject_id
        assert frame_a.movement_name == frame_b.movement_name
        assert frame_a.sequence_id == frame_b.sequence_id
        assert frame_a.frame_index == frame_b.frame_index


class TestShardedGeneration:
    def test_workers_4_bitwise_identical_to_workers_1(self, small_config):
        serial = generate_dataset(small_config, use_cache=False, plan=ExecutionPlan(workers=1))
        sharded = generate_dataset(small_config, use_cache=False, plan=ExecutionPlan(workers=4))
        _assert_datasets_identical(serial, sharded)

    def test_uneven_shards_do_not_change_bits(self, small_config):
        """Three workers cut the four sessions into uneven shards (2, 1, 1),
        which still reproduce the serial dataset exactly."""
        serial = generate_dataset(small_config, use_cache=False)
        uneven = generate_dataset(small_config, use_cache=False, plan=ExecutionPlan(workers=3))
        _assert_datasets_identical(serial, uneven)

    def test_reference_path_shards_identically(self, small_config):
        serial = generate_dataset(small_config, use_cache=False, plan=ExecutionPlan.reference())
        sharded = generate_dataset(
            small_config, use_cache=False, plan=ExecutionPlan(vectorized=False, workers=2)
        )
        _assert_datasets_identical(serial, sharded)

    def test_no_plan_means_serial(self, small_config):
        _assert_datasets_identical(
            generate_dataset(small_config, use_cache=False),
            generate_dataset(small_config, use_cache=False, plan=None),
        )

    def test_session_specs_cover_every_session_once(self, small_config):
        generator = SyntheticDatasetGenerator(small_config)
        specs = generator.session_specs()
        assert len(specs) == 4  # 2 subjects x 2 movements x 1 session
        assert [spec.sequence_id for spec in specs] == [0, 1, 2, 3]
        assert len({(s.subject_id, s.movement_name, s.session) for s in specs}) == 4


class TestPlanVectorizedResolution:
    def test_reference_plan_selects_reference_path(self, small_config):
        """plan.vectorized is the one switch between the generation paths."""
        generator = SyntheticDatasetGenerator(small_config)
        per_session = [
            frame
            for spec in generator.session_specs()
            for frame in generator.generate_session(spec, vectorized=False)
        ]
        via_plan = generate_dataset(
            small_config, use_cache=False, plan=ExecutionPlan.reference()
        )
        _assert_datasets_identical(per_session, via_plan)

    def test_cache_keys_by_resolved_path(self, small_config):
        batched = generate_dataset(small_config, use_cache=True)
        via_plan = generate_dataset(
            small_config, use_cache=True, plan=ExecutionPlan(workers=1)
        )
        assert batched is via_plan  # same resolved path -> same cache entry
        reference = generate_dataset(
            small_config, use_cache=True, plan=ExecutionPlan.reference()
        )
        assert reference is not batched
