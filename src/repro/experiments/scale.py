"""Experiment scale presets.

Every experiment driver accepts an :class:`ExperimentScale` that controls the
dataset size and training budget:

* ``paper`` — matches Section 4.1 of the paper (≈40 k frames, 150 epochs,
  20 000 meta-iterations).  Provided for completeness; on a laptop CPU this
  takes many hours.
* ``ci`` — the default for the benchmark harness: a few thousand frames and
  tens of epochs.  Preserves the orderings and crossover behaviour that the
  paper's tables and figures demonstrate while running in minutes.
* ``smoke`` — minutes-to-seconds scale used by the unit tests; only checks
  that the experiment plumbing runs end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.finetune import FineTuneConfig
from ..core.maml import MetaLearningConfig
from ..core.training import TrainingConfig
from ..dataset.synthetic import SyntheticDatasetConfig
from ..runtime.plan import ExecutionPlan

__all__ = ["ExperimentScale", "get_scale", "SCALE_NAMES"]


@dataclass(frozen=True)
class ExperimentScale:
    """A bundle of dataset and training budgets used by experiment drivers.

    ``plan`` is the :class:`repro.runtime.ExecutionPlan` the drivers hand to
    synthetic dataset generation and figure 2's radar engine; override it
    (``with_overrides(plan=...)``) to force the per-frame reference path —
    or, via :meth:`with_workers`, a multi-process generation — without
    touching the drivers.
    """

    name: str
    dataset: SyntheticDatasetConfig
    training: TrainingConfig
    meta: MetaLearningConfig
    finetune_all: FineTuneConfig
    finetune_last: FineTuneConfig
    finetune_frames: int = 200
    fusion_settings: tuple[int, ...] = (0, 1, 2)
    plan: ExecutionPlan = field(default_factory=ExecutionPlan)

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    def with_workers(self, workers: int) -> "ExperimentScale":
        """Return a copy whose plan shards generation over ``workers`` processes.

        Sharded generation is bitwise identical to serial (per-work-item
        seeding), so this changes reproduction wall clock, never results.
        """
        return self.with_overrides(plan=replace(self.plan, workers=workers))


def _paper_scale() -> ExperimentScale:
    return ExperimentScale(
        name="paper",
        dataset=SyntheticDatasetConfig(seconds_per_pair=100.0),
        training=TrainingConfig(epochs=150, batch_size=128),
        meta=MetaLearningConfig.paper_scale(),
        finetune_all=FineTuneConfig(epochs=50, scope="all"),
        finetune_last=FineTuneConfig(epochs=50, scope="last"),
        finetune_frames=200,
    )


def _ci_scale() -> ExperimentScale:
    return ExperimentScale(
        name="ci",
        dataset=SyntheticDatasetConfig(seconds_per_pair=12.0),
        training=TrainingConfig(epochs=30, batch_size=128),
        meta=MetaLearningConfig(
            meta_iterations=200,
            tasks_per_batch=4,
            support_size=48,
            query_size=48,
            meta_lr=5e-4,
            # The paper's 20,000-iteration budget is impractical at CI scale;
            # a short supervised warm start stands in for the bulk of it (see
            # MetaLearningConfig docs and DESIGN.md).
            warmstart_epochs=10,
        ),
        finetune_all=FineTuneConfig(epochs=50, scope="all"),
        finetune_last=FineTuneConfig(epochs=50, scope="last"),
        finetune_frames=60,
    )


def _smoke_scale() -> ExperimentScale:
    return ExperimentScale(
        name="smoke",
        dataset=SyntheticDatasetConfig(
            subject_ids=(1, 4),
            movement_names=("squat", "right_limb_extension"),
            seconds_per_pair=3.0,
        ),
        training=TrainingConfig(epochs=3, batch_size=64),
        meta=MetaLearningConfig(
            meta_iterations=5, tasks_per_batch=2, support_size=16, query_size=16
        ),
        finetune_all=FineTuneConfig(epochs=3, scope="all"),
        finetune_last=FineTuneConfig(epochs=3, scope="last"),
        finetune_frames=20,
        fusion_settings=(0, 1),
    )


_SCALES = {
    "paper": _paper_scale,
    "ci": _ci_scale,
    "smoke": _smoke_scale,
}

SCALE_NAMES = tuple(_SCALES)


def get_scale(name: str = "ci") -> ExperimentScale:
    """Look up a scale preset by name."""
    if name not in _SCALES:
        raise KeyError(f"unknown scale '{name}'; valid scales: {', '.join(SCALE_NAMES)}")
    return _SCALES[name]()
