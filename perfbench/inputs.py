"""Inputs of the serving benchmark: the estimator recipe and seeded user streams.

The estimator is trained the way ``fuse-serve`` trains its own (two subjects,
two movements, 9 s per pair, 3 epochs, seed 5), so every workload serves the
same model and ``mae_cm`` is comparable across workloads.  Everything a
workload *serves* comes from the workload seed: a synthetic recording pool
and, per simulated user, a contiguous chunk of one recording.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import FuseConfig, FusePoseEstimator
from repro.core.training import TrainingConfig
from repro.dataset.sample import LabelledFrame, PoseDataset
from repro.dataset.synthetic import SyntheticDatasetConfig, generate_dataset

#: the radar / MARS frame cadence every simulated user streams at
FRAME_HZ = 10.0

TRAIN_DATA = SyntheticDatasetConfig(
    subject_ids=(1, 2),
    movement_names=("squat", "right_limb_extension"),
    seconds_per_pair=9.0,
    seed=5,
)

ESTIMATOR = FuseConfig(
    num_context_frames=1, training=TrainingConfig(epochs=3, batch_size=128)
)

#: movements of the served recordings (two seen in training, two unseen)
SERVED_MOVEMENTS = (
    "squat",
    "right_limb_extension",
    "left_front_lunge",
    "both_upper_limb_extension",
)


@dataclass
class Estimate:
    """A trained estimator and what building it cost."""

    estimator: FusePoseEstimator
    generate_s: float
    fit_s: float


def train_estimator() -> Estimate:
    """Generate the training recordings and fit the serving estimator."""
    start = time.perf_counter()
    dataset = generate_dataset(TRAIN_DATA, use_cache=False)
    generated = time.perf_counter()
    estimator = FusePoseEstimator(ESTIMATOR)
    estimator.fit_supervised(estimator.prepare(dataset))
    return Estimate(estimator, generated - start, time.perf_counter() - generated)


def recording_pool(
    seed: int, subject_ids: Sequence[int], seconds_per_pair: float
) -> Tuple[List[List[LabelledFrame]], float]:
    """Seeded recordings, one frame list per session, and the generation time."""
    start = time.perf_counter()
    dataset = generate_dataset(
        SyntheticDatasetConfig(
            subject_ids=tuple(subject_ids),
            movement_names=SERVED_MOVEMENTS,
            seconds_per_pair=seconds_per_pair,
            seed=10_000 + seed,
        ),
        use_cache=False,
    )
    sessions: Dict[int, List[LabelledFrame]] = {}
    for sample in dataset:
        sessions.setdefault(sample.sequence_id, []).append(sample)
    pool = [
        sorted(frames, key=lambda s: s.frame_index)
        for _, frames in sorted(sessions.items())
    ]
    return pool, time.perf_counter() - start


def sample_streams(
    pool: Sequence[Sequence[LabelledFrame]],
    rng: np.random.Generator,
    user_ids: Sequence[str],
    length: int,
) -> Dict[str, List[LabelledFrame]]:
    """One contiguous ``length``-frame chunk per user, at a random offset.

    Users take the recordings in turn, so every subject and movement is
    served in the same proportion whatever the seed (the seed moves the
    offsets and the recordings' own randomness, not the mix).
    """
    streams: Dict[str, List[LabelledFrame]] = {}
    for position, user_id in enumerate(user_ids):
        session = pool[position % len(pool)]
        if len(session) < length:
            raise ValueError(f"recordings of {len(session)} frames cannot give {length}")
        offset = int(rng.integers(len(session) - length + 1))
        streams[user_id] = list(session[offset : offset + length])
    return streams


def as_dataset(frames: Sequence[LabelledFrame]) -> PoseDataset:
    dataset = PoseDataset(name="calibration")
    dataset.extend(frames)
    return dataset


def mae_cm(predictions: Dict[str, np.ndarray], streams: Dict[str, Sequence[LabelledFrame]]) -> float:
    """Mean absolute joint error (cm) of per-user predictions against labels."""
    errors = [
        np.abs(predictions[user] - np.stack([s.joints for s in streams[user]])).ravel()
        for user in predictions
    ]
    return float(np.concatenate(errors).mean() * 100.0)
