"""Figure 2 — single-frame vs multi-frame point-cloud comparison.

The paper's Figure 2 contrasts (a) an RGB frame of a squat, (b) the
corresponding single mmWave point-cloud frame, (c) the RGB residual frame and
(d) the proposed multi-frame point cloud, arguing that fusion makes the body
shape visible again.  Without an RGB camera the reproduction focuses on the
radar half of the figure: it renders the single-frame and fused point clouds
as ASCII density maps (front view) and reports the quantitative density /
coverage statistics that the visual argument rests on.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..body.motion import MotionSynthesizer
from ..body.skeleton import JOINT_INDEX
from ..body.subjects import default_subjects
from ..body.surface import BodyScatteringModel
from ..core.fusion import FrameFusion
from ..engine.radar import BatchedRadarEngine
from ..radar.pipeline import make_pipeline
from ..radar.pointcloud import PointCloudFrame
from ..runtime.plan import ExecutionPlan
from ..viz.render import RenderConfig, occupancy_grid, render_point_cloud
from ..viz.tables import format_table
from .scale import ExperimentScale, get_scale

__all__ = ["Figure2Result", "run_figure2", "format_figure2", "main"]


@dataclass
class Figure2Result:
    """The frames and statistics behind the Figure 2 comparison."""

    single_frame: PointCloudFrame
    fused_frame: PointCloudFrame
    single_points: float
    fused_points: float
    single_coverage: float
    fused_coverage: float
    upper_body_single: int
    upper_body_fused: int

    def enrichment_factor(self) -> float:
        """How many times more points the fused representation contains."""
        if self.single_points == 0:
            return float("inf")
        return self.fused_points / self.single_points


def _coverage(frame: PointCloudFrame, config: RenderConfig) -> float:
    """Fraction of render cells that contain at least one point."""
    grid = occupancy_grid(frame, config)
    return float(np.mean(grid > 0))


def _upper_body_points(frame: PointCloudFrame, shoulder_height: float) -> int:
    """Number of points above the subject's shoulder-ish height."""
    if frame.num_points == 0:
        return 0
    return int(np.sum(frame.points[:, 2] >= shoulder_height))


def run_figure2(
    scale: ExperimentScale | str = "ci",
    movement: str = "squat",
    num_context_frames: int = 1,
    frame_index: int = 25,
    seed: int = 11,
    plan: Optional[ExecutionPlan] = None,
) -> Figure2Result:
    """Generate the squat sequence and build the single vs fused comparison.

    The radar stage runs through the batched execution engine; pass
    ``plan=ExecutionPlan.reference()`` to reproduce the historical per-frame
    loop (the throughput benchmark compares the two).
    """
    scale = get_scale(scale) if isinstance(scale, str) else scale
    plan = plan if plan is not None else scale.plan
    subject = default_subjects()[0]
    rng = np.random.default_rng(seed)

    synthesizer = MotionSynthesizer(frame_rate=scale.dataset.frame_rate)
    trajectory = synthesizer.synthesize(subject, movement, duration=8.0, rng=rng)
    scattering = BodyScatteringModel(
        points_per_segment=scale.dataset.points_per_segment,
        reflectivity=subject.reflectivity,
    )
    pipeline = make_pipeline(scale.dataset.radar_backend, config=scale.dataset.radar_config)
    sequence = BatchedRadarEngine(plan=plan).point_cloud_sequence(
        scattering, trajectory, pipeline, rng
    )

    frame_index = min(frame_index, len(sequence) - 1)
    fusion = FrameFusion(num_context_frames=num_context_frames)
    fused_frames = fusion.fuse_sequence(list(sequence))

    single = sequence[frame_index]
    fused = fused_frames[frame_index]
    render_config = RenderConfig()
    shoulder_height = trajectory.positions[frame_index, JOINT_INDEX["spine_shoulder"], 2]

    counts = sequence.point_counts()
    fused_counts = np.array([frame.num_points for frame in fused_frames])
    return Figure2Result(
        single_frame=single,
        fused_frame=fused,
        single_points=float(counts.mean()),
        fused_points=float(fused_counts.mean()),
        single_coverage=_coverage(single, render_config),
        fused_coverage=_coverage(fused, render_config),
        upper_body_single=_upper_body_points(single, shoulder_height),
        upper_body_fused=_upper_body_points(fused, shoulder_height),
    )


def format_figure2(result: Figure2Result) -> str:
    """Render the Figure 2 comparison as ASCII panels plus a statistics table."""
    panels = [
        render_point_cloud(result.single_frame, title="(b) single-frame point cloud"),
        "",
        render_point_cloud(result.fused_frame, title="(d) proposed multi-frame point cloud"),
        "",
        format_table(
            ["statistic", "single-frame", "multi-frame"],
            [
                ["mean points per frame", result.single_points, result.fused_points],
                ["front-view cell coverage", result.single_coverage, result.fused_coverage],
                [
                    "points above shoulder height",
                    float(result.upper_body_single),
                    float(result.upper_body_fused),
                ],
            ],
            title="Figure 2 (measured): density statistics",
        ),
        f"enrichment factor: {result.enrichment_factor():.1f}x "
        "(paper argument: the multi-frame cloud captures the upper-body shape that a single frame misses)",
    ]
    return "\n".join(panels)


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point: ``python -m repro.experiments.figure2``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", help="experiment scale preset (paper/ci/smoke)")
    parser.add_argument("--movement", default="squat", help="movement to visualize")
    parser.add_argument("--context", type=int, default=1, help="fusion parameter M")
    args = parser.parse_args(argv)
    result = run_figure2(args.scale, movement=args.movement, num_context_frames=args.context)
    print(format_figure2(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
