"""Validation tests of :class:`repro.runtime.ExecutionPlan`."""

from __future__ import annotations

import dataclasses

import pytest

from repro.runtime import ExecutionPlan


class TestExecutionPlan:
    def test_defaults_are_serial_vectorized(self):
        plan = ExecutionPlan()
        assert plan.vectorized
        assert plan.workers == 1

    def test_reference_plan(self):
        plan = ExecutionPlan.reference()
        assert not plan.vectorized
        assert plan.workers == 1

    @pytest.mark.parametrize("kwargs", [{"workers": 0}])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPlan(**kwargs)

    def test_hashable_and_frozen(self):
        plan = ExecutionPlan()
        assert hash(plan) == hash(ExecutionPlan())
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.workers = 2
