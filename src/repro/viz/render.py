"""Text-based point-cloud and skeleton rendering.

The repository has no plotting dependency, so Figure 2 ("visual comparison of
a single-frame vs multi-frame point cloud") is reproduced as ASCII density
renderings plus quantitative density statistics.  The renderer projects a
point cloud onto the lateral-height (x-z) plane — the "front view" a human
would use to recognize a pose — and draws an intensity-weighted occupancy
grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..body.skeleton import JOINT_INDEX, SKELETON_EDGES
from ..radar.pointcloud import PointCloudFrame

__all__ = ["RenderConfig", "render_point_cloud", "render_skeleton", "occupancy_grid"]

#: Density ramp used for ASCII rendering (space = empty, darker = denser).
_DENSITY_RAMP = " .:-=+*#%@"


@dataclass(frozen=True)
class RenderConfig:
    """Rendering window and resolution.

    The defaults cover a standing adult at the MARS standoff distances:
    +/- 1 m laterally and 0-2 m vertically.
    """

    width: int = 48
    height: int = 24
    x_range: Tuple[float, float] = (-1.0, 1.0)
    z_range: Tuple[float, float] = (0.0, 2.0)

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("render grid must be at least 2x2")
        if self.x_range[0] >= self.x_range[1] or self.z_range[0] >= self.z_range[1]:
            raise ValueError("render ranges must be increasing")


def occupancy_grid(
    frame: PointCloudFrame, config: Optional[RenderConfig] = None
) -> np.ndarray:
    """Project a point cloud onto an ``(height, width)`` occupancy-count grid."""
    config = config if config is not None else RenderConfig()
    grid = np.zeros((config.height, config.width))
    if frame.num_points == 0:
        return grid
    x = frame.points[:, 0]
    z = frame.points[:, 2]
    x_low, x_high = config.x_range
    z_low, z_high = config.z_range
    cols = np.floor((x - x_low) / (x_high - x_low) * config.width).astype(int)
    rows = np.floor((z_high - z) / (z_high - z_low) * config.height).astype(int)
    valid = (cols >= 0) & (cols < config.width) & (rows >= 0) & (rows < config.height)
    np.add.at(grid, (rows[valid], cols[valid]), 1.0)
    return grid


def _grid_to_text(grid: np.ndarray) -> str:
    peak = grid.max()
    if peak <= 0:
        return "\n".join(" " * grid.shape[1] for _ in range(grid.shape[0]))
    lines = []
    for row in grid:
        chars = []
        for value in row:
            level = int(round(value / peak * (len(_DENSITY_RAMP) - 1)))
            chars.append(_DENSITY_RAMP[level])
        lines.append("".join(chars))
    return "\n".join(lines)


def render_point_cloud(
    frame: PointCloudFrame,
    config: Optional[RenderConfig] = None,
    title: Optional[str] = None,
) -> str:
    """Render a point cloud as an ASCII front-view density map."""
    config = config if config is not None else RenderConfig()
    grid = occupancy_grid(frame, config)
    body = _grid_to_text(grid)
    header = f"{title} ({frame.num_points} points)" if title else f"{frame.num_points} points"
    ruler = "+" + "-" * config.width + "+"
    framed = "\n".join(f"|{line}|" for line in body.splitlines())
    return f"{header}\n{ruler}\n{framed}\n{ruler}"


def render_skeleton(
    joints: np.ndarray,
    config: Optional[RenderConfig] = None,
    title: Optional[str] = None,
) -> str:
    """Render a 19-joint skeleton (front view) as ASCII art.

    Joints are drawn as ``o`` and bones as interpolated ``.`` segments; used
    by the quickstart example to show predictions without a plotting stack.
    """
    config = config if config is not None else RenderConfig()
    joints = np.asarray(joints, dtype=float)
    if joints.shape != (len(JOINT_INDEX), 3):
        raise ValueError(f"expected (19, 3) joints, got {joints.shape}")

    canvas = np.full((config.height, config.width), " ", dtype="<U1")

    def to_cell(point: np.ndarray) -> Optional[Tuple[int, int]]:
        x_low, x_high = config.x_range
        z_low, z_high = config.z_range
        col = int(np.floor((point[0] - x_low) / (x_high - x_low) * config.width))
        row = int(np.floor((z_high - point[2]) / (z_high - z_low) * config.height))
        if 0 <= col < config.width and 0 <= row < config.height:
            return row, col
        return None

    # Bones first so joints overwrite them.
    for parent, child in SKELETON_EDGES:
        start = joints[JOINT_INDEX[parent]]
        end = joints[JOINT_INDEX[child]]
        for t in np.linspace(0.0, 1.0, 12):
            cell = to_cell((1 - t) * start + t * end)
            if cell is not None:
                canvas[cell] = "."
    for index in range(joints.shape[0]):
        cell = to_cell(joints[index])
        if cell is not None:
            canvas[cell] = "o"

    body = "\n".join("".join(row) for row in canvas)
    header = title if title else "skeleton"
    ruler = "+" + "-" * config.width + "+"
    framed = "\n".join(f"|{line}|" for line in body.splitlines())
    return f"{header}\n{ruler}\n{framed}\n{ruler}"
