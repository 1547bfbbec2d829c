"""Replay driver: simulate N concurrent users against a :class:`PoseServer`.

The driver turns a labelled (synthetic) dataset into per-user frame streams,
interleaves them round-robin — the worst case for cross-user micro-batching,
every consecutive request comes from a different user — and feeds them
through a server, collecting per-user predictions, drop records and the
metrics snapshot.

Two reference paths accompany it:

* serving with ``max_batch_size=1`` (an unbatched :class:`PoseServer`) is the
  *sequential per-user reference*: same sessions, same kernel, no
  coalescing.  Replay predictions must match it bitwise.
* :func:`sequential_reference` is the *naive baseline*: a plain per-frame
  loop over ``estimator.predict`` with no serving machinery at all.  It is
  the honest speed yardstick for the throughput benchmark (its BLAS kernels
  differ from the batch-invariant serving kernel, so agreement is close but
  not bitwise).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.pipeline import FusePoseEstimator
from ..dataset.sample import LabelledFrame, PoseDataset
from ..radar.pointcloud import merge_frames
from .batcher import PendingPrediction
from .server import PoseServer
from .session import streaming_window

__all__ = [
    "ReplayResult",
    "user_streams_from_dataset",
    "adaptation_split",
    "replay_users",
    "sequential_reference",
]


@dataclass
class ReplayResult:
    """Everything one replay produced.

    ``predictions`` maps each user to an ``(frames, joints, 3)`` array in
    stream order; frames dropped under backpressure are recorded in
    ``dropped`` (per-user stream indices) and excluded from the arrays.
    """

    predictions: Dict[Hashable, np.ndarray] = field(default_factory=dict)
    labels: Dict[Hashable, np.ndarray] = field(default_factory=dict)
    dropped: Dict[Hashable, List[int]] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def num_users(self) -> int:
        return len(self.predictions)

    @property
    def frames_served(self) -> int:
        return sum(array.shape[0] for array in self.predictions.values())

    @property
    def frames_dropped(self) -> int:
        return sum(len(indices) for indices in self.dropped.values())

    @property
    def frames_per_second(self) -> float:
        return self.frames_served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def mae_cm(self) -> float:
        """Mean absolute joint error (cm) over every served, labelled frame."""
        errors: List[np.ndarray] = []
        for user_id, predicted in self.predictions.items():
            labelled = self.labels.get(user_id)
            if labelled is None or labelled.shape[0] != predicted.shape[0]:
                continue
            errors.append(np.abs(predicted - labelled).reshape(-1))
        if not errors:
            return float("nan")
        return float(np.concatenate(errors).mean() * 100.0)


def user_streams_from_dataset(
    dataset: PoseDataset,
    num_users: int,
    frames_per_user: Optional[int] = None,
) -> "Dict[str, List[LabelledFrame]]":
    """Slice a labelled dataset into ``num_users`` per-user frame streams.

    Recording sessions are assigned round-robin; when there are more users
    than sessions, later users receive subsequent chunks of the same
    sessions.  Streams never cross session boundaries, so streaming fusion
    stays physically meaningful.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    by_sequence: Dict[int, List[LabelledFrame]] = {}
    for sample in dataset:
        by_sequence.setdefault(sample.sequence_id, []).append(sample)
    sequences = [
        sorted(samples, key=lambda s: s.frame_index)
        for _, samples in sorted(by_sequence.items())
    ]
    if not sequences:
        raise ValueError("dataset has no recording sessions")

    shortest = min(len(sequence) for sequence in sequences)
    rounds = -(-num_users // len(sequences))  # ceil
    budget = shortest // rounds
    if frames_per_user is None:
        frames_per_user = budget
    if frames_per_user < 1 or budget < 1:
        raise ValueError(
            f"dataset too small for {num_users} users: "
            f"{shortest} frames/session over {rounds} users/session"
        )
    frames_per_user = min(frames_per_user, budget)

    streams: Dict[str, List[LabelledFrame]] = {}
    for user_index in range(num_users):
        sequence = sequences[user_index % len(sequences)]
        offset = (user_index // len(sequences)) * frames_per_user
        chunk = sequence[offset : offset + frames_per_user]
        streams[f"user-{user_index:03d}"] = chunk
    return streams


def adaptation_split(
    streams: Mapping[Hashable, Sequence[LabelledFrame]], adaptation_frames: int
) -> Tuple[Dict[Hashable, List[LabelledFrame]], Dict[Hashable, List[LabelledFrame]]]:
    """Split each stream into (calibration frames, serving frames).

    The first ``adaptation_frames`` labelled frames of each stream become the
    user's personal fine-tuning set; the remainder is what the user actually
    streams at serving time.
    """
    if adaptation_frames < 0:
        raise ValueError("adaptation_frames must be non-negative")
    calibration: Dict[Hashable, List[LabelledFrame]] = {}
    serving: Dict[Hashable, List[LabelledFrame]] = {}
    for user_id, stream in streams.items():
        stream = list(stream)
        if adaptation_frames >= len(stream):
            raise ValueError(
                f"stream of user {user_id!r} has only {len(stream)} frames, "
                f"cannot reserve {adaptation_frames} for adaptation"
            )
        calibration[user_id] = stream[:adaptation_frames]
        serving[user_id] = stream[adaptation_frames:]
    return calibration, serving


def replay_users(
    server: PoseServer,
    streams: Mapping[Hashable, Sequence[LabelledFrame]],
) -> ReplayResult:
    """Interleave every user's stream through the server, round-robin.

    Tick ``t`` submits frame ``t`` of every user (in stream order) — the
    maximally interleaved arrival pattern, so consecutive requests belong to
    different users and micro-batches genuinely coalesce across users.
    Flushes happen when batches fill; the remainder flushes after the last
    tick.
    """
    users = list(streams)
    handles: Dict[Hashable, List[PendingPrediction]] = {user: [] for user in users}
    longest = max((len(streams[user]) for user in users), default=0)
    num_joints = server.estimator.model.config.output_dim // 3

    start = time.perf_counter()
    for tick in range(longest):
        for user in users:
            stream = streams[user]
            if tick < len(stream):
                handles[user].append(server.enqueue(user, stream[tick].cloud))
    while server.flush():
        pass
    wall = time.perf_counter() - start

    result = ReplayResult(wall_seconds=wall, metrics=server.metrics_snapshot())
    for user in users:
        served: List[np.ndarray] = []
        labels: List[np.ndarray] = []
        dropped: List[int] = []
        for index, handle in enumerate(handles[user]):
            if handle.dropped:
                dropped.append(index)
                continue
            served.append(handle.result(flush=False))
            labels.append(streams[user][index].joints)
        # np.array copies a list of equal-shape arrays at about half
        # np.stack's per-call cost.
        result.predictions[user] = (
            np.array(served) if served else np.zeros((0, num_joints, 3))
        )
        result.labels[user] = np.array(labels) if labels else np.zeros((0, num_joints, 3))
        result.dropped[user] = dropped
    return result


def sequential_reference(
    estimator: FusePoseEstimator,
    streams: Mapping[Hashable, Sequence[LabelledFrame]],
) -> Dict[Hashable, np.ndarray]:
    """The naive per-user serving loop: no batching, no serving machinery.

    Each user's frames are processed strictly one at a time — streaming
    fusion window, solo feature build, one single-frame model call.  This
    is the throughput baseline micro-batched serving is measured against.
    """
    m = estimator.config.num_context_frames
    num_joints = estimator.model.config.output_dim // 3
    results: Dict[Hashable, np.ndarray] = {}
    for user_id, stream in streams.items():
        history: List = []
        predictions: List[np.ndarray] = []
        for sample in stream:
            history.append(sample.cloud)
            if len(history) > 2 * m + 1:
                history.pop(0)
            if m > 0:
                fused = merge_frames(streaming_window(history, m))
            else:
                fused = sample.cloud
            features = estimator.feature_builder.build_batch([fused])
            predictions.append(estimator.predict(features)[0])
        results[user_id] = (
            np.stack(predictions) if predictions else np.zeros((0, num_joints, 3))
        )
    return results
