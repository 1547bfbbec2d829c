"""Validation tests of :class:`repro.runtime.ExecutionPlan` and the façade."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import BatchPlan
from repro.runtime import ExecutionPlan


class TestExecutionPlan:
    def test_defaults_are_serial_vectorized(self):
        plan = ExecutionPlan()
        assert plan.vectorized
        assert plan.workers == 1
        assert plan.shard_size is None
        assert plan.cache_policy == "memory"

    def test_reference_plan(self):
        plan = ExecutionPlan.reference()
        assert not plan.vectorized
        assert plan.cache_policy == "none"

    def test_with_workers(self):
        plan = ExecutionPlan().with_workers(4)
        assert plan.workers == 4
        # Everything else is untouched.
        assert plan.vectorized and plan.cache_policy == "memory"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"shard_size": 0},
            {"batch_size": 0},
            {"cache_policy": "ram"},
            {"cache_policy": "disk"},  # missing cache_dir
            {"cache_capacity": 0},
            {"cache_disk_capacity": 0},
            {"backend": "optical"},
            {"cache_policy": "disk", "cache_dir": ""},  # empty cache_dir
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPlan(**kwargs)

    def test_radar_backend_error_names_the_radar_choices(self):
        with pytest.raises(ValueError, match="expected 'geometric' or 'signal'"):
            ExecutionPlan(backend="fast")

    def test_hashable_and_frozen(self):
        plan = ExecutionPlan()
        assert hash(plan) == hash(ExecutionPlan())
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.workers = 2


class TestBatchPlanFacade:
    def test_batchplan_is_an_execution_plan(self):
        assert issubclass(BatchPlan, ExecutionPlan)
        assert isinstance(BatchPlan(), ExecutionPlan)

    def test_facade_adds_no_fields(self):
        base = {f.name for f in dataclasses.fields(ExecutionPlan)}
        facade = {f.name for f in dataclasses.fields(BatchPlan)}
        assert facade == base

    def test_reference_returns_facade_type(self):
        assert isinstance(BatchPlan.reference(), BatchPlan)

    def test_replace_keeps_facade_type(self):
        plan = dataclasses.replace(BatchPlan(), workers=4)
        assert isinstance(plan, BatchPlan)
        assert plan.workers == 4
