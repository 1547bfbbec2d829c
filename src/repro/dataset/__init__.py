"""``repro.dataset`` — labelled mmWave pose datasets and feature building.

The data layer's contract: everything between raw point clouds and the
``(N, C, H, W)`` feature tensors the models consume lives here, and every
stage is deterministic for a fixed configuration (generation draws
randomness per work item via :mod:`repro.runtime.seeding`, so sharded
generation is bitwise identical to serial).

Public entry points:

* :func:`generate_dataset` / :class:`SyntheticDatasetConfig` — the
  synthetic MARS-like dataset generator (shardable over a
  :class:`repro.runtime.ExecutionPlan`);
* :func:`load_mars_directory` / :func:`load_mars_pair` — loader for the
  real MARS CSV layout;
* :class:`PoseDataset` / :class:`LabelledFrame` — the labelled-frame
  containers every driver exchanges;
* :class:`FeatureMapBuilder` — point-cloud-to-feature-map conversion
  (vectorized ``build_batch``);
* :func:`per_movement_split` / :func:`leave_out_split` — the paper's
  evaluation splits;
* :class:`BatchLoader` / :func:`build_array_dataset` — batch iteration for
  training loops.
"""

from .features import FeatureMapBuilder, FeatureNormalization
from .loader import ArrayDataset, BatchLoader, build_array_dataset
from .mars import MarsLoadReport, load_mars_directory, load_mars_pair
from .sample import LABEL_DIM, LabelledFrame, PoseDataset
from .splits import AdaptationSplit, TrainValTest, leave_out_split, per_movement_split
from .statistics import DatasetSummary, summarize
from .synthetic import SyntheticDatasetConfig, SyntheticDatasetGenerator, generate_dataset

__all__ = [
    "LabelledFrame",
    "PoseDataset",
    "LABEL_DIM",
    "SyntheticDatasetConfig",
    "SyntheticDatasetGenerator",
    "generate_dataset",
    "MarsLoadReport",
    "load_mars_directory",
    "load_mars_pair",
    "TrainValTest",
    "AdaptationSplit",
    "per_movement_split",
    "leave_out_split",
    "FeatureMapBuilder",
    "FeatureNormalization",
    "ArrayDataset",
    "BatchLoader",
    "build_array_dataset",
    "DatasetSummary",
    "summarize",
]
