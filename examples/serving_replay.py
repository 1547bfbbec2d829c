"""Serving replay: 50 concurrent simulated users against a PoseServer.

This example walks the full serving story:

1. generate a synthetic MARS-like dataset and train a FUSE estimator,
2. stand up an in-process :class:`PoseServer` (streaming fusion, cross-user
   micro-batching, bounded queues),
3. onboard half the users with personal last-layer adaptation — fine-tuned
   for all of them in grouped task-batched calls,
4. replay every user's frame stream interleaved (the worst case for
   batching: consecutive requests always come from different users),
5. compare the micro-batched run against the naive per-user loop and print
   the serving metrics,
6. replay the same streams through a 4-shard
   :class:`ProcessShardedPoseServer` (users hashed onto shard worker
   processes — identical predictions) and print the Prometheus text
   exposition a scrape endpoint would serve.

Run with::

    python examples/serving_replay.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import FuseConfig, FusePoseEstimator, TrainingConfig
from repro.dataset import PoseDataset, SyntheticDatasetConfig, generate_dataset
from repro.serve import (
    AdapterPolicy,
    PoseServer,
    ProcessShardedPoseServer,
    ServeConfig,
    adaptation_split,
    replay_users,
    sequential_reference,
    user_streams_from_dataset,
)

NUM_USERS = 50
NUM_SHARDS = 4
CONFIG = ServeConfig(max_batch_size=64, max_delay_ms=5.0, max_queue_depth=256)
LAST_LAYER = AdapterPolicy(scope="last", epochs=3)


def as_pose_dataset(frames) -> PoseDataset:
    dataset = PoseDataset(name="calibration")
    dataset.extend(frames)
    return dataset


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Data and a quickly trained estimator.
    # ------------------------------------------------------------------
    dataset = generate_dataset(
        SyntheticDatasetConfig(
            subject_ids=(1, 2),
            movement_names=("squat", "right_limb_extension"),
            seconds_per_pair=21.0,
            seed=5,
        )
    )
    estimator = FusePoseEstimator(
        FuseConfig(num_context_frames=1, training=TrainingConfig(epochs=5, batch_size=128))
    )
    print(f"Training on {len(dataset)} synthetic frames...")
    estimator.fit_supervised(estimator.prepare(dataset))

    # ------------------------------------------------------------------
    # 2. The server: micro-batching across users, bounded queues.
    # ------------------------------------------------------------------
    server = PoseServer(estimator, CONFIG, policy=LAST_LAYER)

    # ------------------------------------------------------------------
    # 3. Simulated users; half get personal last-layer adaptation.
    # ------------------------------------------------------------------
    streams = user_streams_from_dataset(dataset, num_users=NUM_USERS, frames_per_user=15)
    calibration, serving = adaptation_split(streams, adaptation_frames=5)
    personalised = list(serving)[::2]
    print(f"Adapting {len(personalised)} of {NUM_USERS} users (grouped, last layer)...")
    start = time.perf_counter()
    server.adapt_users({user: as_pose_dataset(calibration[user]) for user in personalised})
    print(f"  grouped adaptation took {time.perf_counter() - start:.2f} s")

    # ------------------------------------------------------------------
    # 4. Interleaved replay through the micro-batched server.
    # ------------------------------------------------------------------
    result = replay_users(server, serving)
    print(
        f"\nServed {result.frames_served} frames from {result.num_users} users "
        f"at {result.frames_per_second:,.0f} frames/s "
        f"(MAE {result.mae_cm():.2f} cm, {result.frames_dropped} dropped)"
    )

    # ------------------------------------------------------------------
    # 5. The naive per-user loop as the honest yardstick.
    # ------------------------------------------------------------------
    total = sum(len(stream) for stream in serving.values())
    start = time.perf_counter()
    sequential_reference(estimator, serving)
    naive_fps = total / (time.perf_counter() - start)
    print(f"Naive per-user loop: {naive_fps:,.0f} frames/s "
          f"-> micro-batching speedup {result.frames_per_second / naive_fps:.1f}x")

    print("\nServing metrics:")
    for key, value in sorted(result.metrics.items()):
        print(f"  {key:28s} {value:10.3f}")

    # ------------------------------------------------------------------
    # 6. Multi-shard serving: same users, N shard processes, same bits.
    # ------------------------------------------------------------------
    with ProcessShardedPoseServer(
        estimator, num_shards=NUM_SHARDS, config=CONFIG, policy=LAST_LAYER
    ) as sharded_server:
        # Same personalised cohort; each shard adapts its own users in one
        # grouped call, landing on exactly the same personal heads.
        sharded_server.adapt_users(
            {user: as_pose_dataset(calibration[user]) for user in personalised}
        )
        sharded = replay_users(sharded_server, serving)
        exposition = sharded_server.to_prometheus()

    for user in serving:
        np.testing.assert_array_equal(
            sharded.predictions[user], result.predictions[user]
        )
    print(
        f"\n{NUM_SHARDS}-shard replay: {sharded.frames_served} frames at "
        f"{sharded.frames_per_second:,.0f} frames/s — predictions identical to "
        "the single-server run, user for user."
    )

    print("\nPrometheus exposition (what a /metrics endpoint would serve):")
    print(exposition)


if __name__ == "__main__":
    main()
