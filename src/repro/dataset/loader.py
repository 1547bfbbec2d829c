"""Batch iteration over feature/label arrays.

A tiny data-loader abstraction: :class:`ArrayDataset` holds pre-built feature
maps and labels as NumPy arrays, and :class:`BatchLoader` iterates over them
in (optionally shuffled) mini-batches.  Keeping the arrays materialized makes
epoch iteration cheap, which matters because the fine-tuning experiments run
the same small dataset for tens of epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .features import FeatureMapBuilder
from .sample import LabelledFrame, PoseDataset

__all__ = ["ArrayDataset", "BatchLoader", "build_array_dataset"]


@dataclass
class ArrayDataset:
    """Feature maps and labels materialized as arrays."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"features ({self.features.shape[0]}) and labels ({self.labels.shape[0]}) "
                "must have the same number of rows"
            )

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def subset(self, indices: Sequence[int]) -> "ArrayDataset":
        """Return a new dataset restricted to ``indices``."""
        indices = np.asarray(indices, dtype=int)
        return ArrayDataset(self.features[indices], self.labels[indices])

    def sample(self, count: int, rng: np.random.Generator) -> "ArrayDataset":
        """Uniformly sample ``count`` rows (without replacement when possible)."""
        if count <= 0:
            raise ValueError("count must be positive")
        replace = count > len(self)
        indices = rng.choice(len(self), size=count, replace=replace)
        return self.subset(indices)

    def split(self, fraction: float, rng: Optional[np.random.Generator] = None) -> Tuple["ArrayDataset", "ArrayDataset"]:
        """Randomly split into two datasets of sizes ``fraction`` / ``1 - fraction``."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        rng = rng if rng is not None else np.random.default_rng(0)
        indices = rng.permutation(len(self))
        cut = int(round(len(self) * fraction))
        return self.subset(indices[:cut]), self.subset(indices[cut:])


@dataclass
class BatchLoader:
    """Mini-batch iterator over an :class:`ArrayDataset`."""

    dataset: ArrayDataset
    batch_size: int = 128
    shuffle: bool = True
    seed: int = 0
    drop_last: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._epoch = 0

    def __len__(self) -> int:
        """Number of batches per epoch."""
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        indices = np.arange(n)
        if self.shuffle:
            rng = np.random.default_rng(self.seed + self._epoch)
            indices = rng.permutation(n)
        self._epoch += 1
        for start in range(0, n, self.batch_size):
            batch = indices[start : start + self.batch_size]
            if self.drop_last and batch.shape[0] < self.batch_size:
                break
            yield self.dataset.features[batch], self.dataset.labels[batch]


def build_array_dataset(
    samples: PoseDataset | Sequence[LabelledFrame],
    builder: Optional[FeatureMapBuilder] = None,
    rng: Optional[np.random.Generator] = None,
) -> ArrayDataset:
    """Convert labelled samples into an :class:`ArrayDataset` of feature maps."""
    builder = builder if builder is not None else FeatureMapBuilder()
    features, labels = builder.build_dataset(list(samples), rng=rng)
    return ArrayDataset(features, labels)
