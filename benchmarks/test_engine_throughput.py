"""Throughput benchmark of the batched execution engine.

Measures the vectorized engine against the per-frame reference paths on
the radar hot path, and records the training stack's one meta path:

* **frames/sec** — radar point-cloud generation for a full trajectory
  (scatterer sampling + geometric backend);
* **tasks/sec** — meta-learning: tasks adapted per second through
  Algorithm 1's task-at-a-time loop;
* **figure2 end-to-end** — wall-clock of the Figure 2 experiment (motion
  synthesis, radar, fusion, statistics) under both plans;
* **shard scaling** — synthetic dataset generation through
  ``runtime.map_shards`` at 1/2/4 worker processes (bitwise-identical
  output, so only the wall clock moves).

Results are written to ``BENCH_engine.json`` at the repository root so the
performance trajectory is tracked from PR to PR; the scheduled CI slow tier
uploads the file as an artifact.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest
from bench_io import record_section

from repro.body.motion import MotionSynthesizer
from repro.body.subjects import default_subjects
from repro.body.surface import BodyScatteringModel
from repro.core.maml import MetaLearningConfig, MetaTrainer
from repro.core.models import PoseCNN
from repro.dataset.features import FeatureMapBuilder
from repro.dataset.loader import ArrayDataset
from repro.dataset.synthetic import SyntheticDatasetConfig, generate_dataset
from repro.engine import BatchedRadarEngine
from repro.experiments.figure2 import run_figure2
from repro.nn.backend import active_backend_name
from repro.radar import GeometricPipeline, RadarConfig
from repro.runtime import ExecutionPlan

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

_RESULTS: dict = {}


def _record(section: str, payload: dict) -> None:
    record_section(BENCH_PATH, _RESULTS, section, payload)


def _time(callable_, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


class TestRadarThroughput:
    def test_frames_per_second(self):
        """Batched radar generation must beat the per-frame loop >= 3x."""
        subject = default_subjects()[0]
        scattering = BodyScatteringModel(points_per_segment=5)
        trajectory = MotionSynthesizer(frame_rate=10.0).synthesize(
            subject, "squat", duration=30.0, rng=np.random.default_rng(0)
        )
        pipeline = GeometricPipeline(config=RadarConfig())
        vectorized = BatchedRadarEngine(plan=ExecutionPlan())
        reference = BatchedRadarEngine(plan=ExecutionPlan.reference())

        t_ref = _time(
            lambda: reference.point_cloud_sequence(
                scattering, trajectory, pipeline, np.random.default_rng(1)
            ),
            repeats=2,
        )
        t_vec = _time(
            lambda: vectorized.point_cloud_sequence(
                scattering, trajectory, pipeline, np.random.default_rng(1)
            ),
            repeats=2,
        )
        frames = trajectory.num_frames
        speedup = t_ref / t_vec
        _record(
            "radar_frames_per_sec",
            {
                "frames": frames,
                "per_frame_fps": frames / t_ref,
                "batched_fps": frames / t_vec,
                "speedup": speedup,
            },
        )
        assert speedup >= 3.0, f"batched radar only {speedup:.2f}x faster"

    def test_feature_build_throughput(self):
        """Vectorized feature building must beat the per-frame loop >= 3x."""
        rng = np.random.default_rng(2)
        from repro.radar.pointcloud import PointCloudFrame

        frames = []
        for _ in range(2000):
            count = int(rng.integers(5, 70))
            points = np.column_stack(
                [
                    rng.uniform(-1.2, 1.2, count),
                    rng.uniform(0.5, 4.5, count),
                    rng.uniform(0.0, 2.2, count),
                    rng.normal(0.0, 1.0, count),
                    rng.uniform(-5.0, 35.0, count),
                ]
            )
            frames.append(PointCloudFrame(points))
        builder = FeatureMapBuilder()
        t_ref = _time(lambda: builder.build_batch(frames, vectorized=False))
        t_vec = _time(lambda: builder.build_batch(frames))
        speedup = t_ref / t_vec
        _record(
            "feature_build",
            {
                "frames": len(frames),
                "per_frame_fps": len(frames) / t_ref,
                "batched_fps": len(frames) / t_vec,
                "speedup": speedup,
            },
        )
        assert speedup >= 3.0, f"vectorized feature build only {speedup:.2f}x faster"


class TestMetaThroughput:
    def test_tasks_per_second(self):
        """Tasks adapted per second by the meta-trainer's one path.

        The figure keeps its historical key, ``sequential_tps``, so the
        nightly trend check watches it against the committed baseline.
        """
        rng = np.random.default_rng(3)
        data = ArrayDataset(rng.normal(size=(512, 5, 8, 8)), rng.normal(size=(512, 57)))
        config = MetaLearningConfig(
            meta_iterations=6, tasks_per_batch=8, support_size=48, query_size=48
        )
        tasks_total = config.meta_iterations * config.tasks_per_batch

        seconds = _time(lambda: MetaTrainer(PoseCNN(seed=4), config).meta_train(data))
        _record(
            "meta_tasks_per_sec",
            {"tasks": tasks_total, "sequential_tps": tasks_total / seconds},
        )


class TestShardScaling:
    def test_dataset_generation_shard_scaling(self):
        """Sharded generation at 1/2/4 workers; identical bits, faster walls.

        On multi-core hosts the 4-worker run must beat the serial run; on a
        single-core container the process pool can only add overhead, so the
        bar there is a sanity floor (the pool must not be catastrophically
        slow) and the figures are recorded for the trend check.
        """
        config = SyntheticDatasetConfig(seconds_per_pair=8.0)  # 40 sessions, 3200 frames
        frames = config.expected_frames
        payload: dict = {
            "frames": frames,
            "cpu_count": os.cpu_count(),
            "backend": active_backend_name(),
        }
        seconds: dict = {}
        for workers in (1, 2, 4):
            plan = ExecutionPlan(workers=workers)
            seconds[workers] = _time(
                lambda plan=plan: generate_dataset(config, use_cache=False, plan=plan),
                repeats=2,
            )
            payload[f"workers_{workers}_fps"] = frames / seconds[workers]
        payload["speedup_4_workers"] = seconds[1] / seconds[4]
        _record("dataset_generation_shards", payload)

        speedup = payload["speedup_4_workers"]
        if (os.cpu_count() or 1) >= 4:
            assert speedup >= 1.3, f"4-worker generation only {speedup:.2f}x serial"
        else:
            assert speedup >= 0.4, f"sharding overhead excessive: {speedup:.2f}x serial"


class TestEndToEnd:
    def test_figure2_wall_clock(self):
        """The acceptance bar: figure2 end-to-end >= 3x faster batched."""
        t_ref = _time(lambda: run_figure2("ci", plan=ExecutionPlan.reference()), repeats=2)
        t_vec = _time(lambda: run_figure2("ci", plan=ExecutionPlan()), repeats=2)
        speedup = t_ref / t_vec
        _record(
            "figure2_end_to_end",
            {
                "per_frame_seconds": t_ref,
                "batched_seconds": t_vec,
                "speedup": speedup,
            },
        )
        assert speedup >= 3.0, f"figure2 end-to-end only {speedup:.2f}x faster"

    @pytest.mark.parametrize("plan", [ExecutionPlan(), ExecutionPlan.reference()])
    def test_figure2_results_sane_under_both_plans(self, plan):
        result = run_figure2("ci", plan=plan)
        assert result.fused_points > result.single_points
        assert result.enrichment_factor() > 1.5
