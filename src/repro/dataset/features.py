"""Point-cloud to feature-map conversion (the MARS input representation).

The MARS baseline CNN — which FUSE reuses unchanged — does not consume raw
variable-length point lists.  Each frame is converted to a fixed-size feature
map: the points are sorted, padded/truncated to a fixed budget and arranged
into an ``(channels, height, width)`` grid where the five channels are the
Eq. 1 per-point features ``(x, y, z, doppler, intensity)``.  With the default
64-point budget this yields the 8x8x5 representation described in the MARS
paper, and the two-conv + two-FC model on top of it has ~1.1 M parameters as
reported in Section 4.1 of the FUSE paper.

Multi-frame fusion multiplies the number of candidate points; the feature map
keeps the same size (so the model is unchanged, as the paper requires for a
fair comparison) but its 64 slots are filled from a much richer candidate
set, which is exactly where the accuracy improvement comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..radar.pointcloud import PointCloudFrame
from .sample import LabelledFrame

__all__ = ["FeatureNormalization", "FeatureMapBuilder"]


@dataclass(frozen=True)
class FeatureNormalization:
    """Affine normalization ranges for each point-cloud channel.

    Each channel is mapped to roughly ``[-1, 1]`` using fixed scene-level
    bounds, so the normalization is deterministic and identical across
    training and deployment (no per-batch statistics).
    """

    x_range: Tuple[float, float] = (-1.5, 1.5)
    y_range: Tuple[float, float] = (0.0, 5.0)
    z_range: Tuple[float, float] = (0.0, 2.5)
    doppler_range: Tuple[float, float] = (-2.0, 2.0)
    intensity_range: Tuple[float, float] = (-10.0, 40.0)

    def ranges(self) -> np.ndarray:
        """Stack the channel ranges into a ``(5, 2)`` array."""
        return np.array(
            [
                self.x_range,
                self.y_range,
                self.z_range,
                self.doppler_range,
                self.intensity_range,
            ],
            dtype=float,
        )

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Normalize a ``(..., 5)`` point array channel-wise to ``[-1, 1]``."""
        points = np.asarray(points, dtype=float)
        if points.ndim < 2 or points.shape[-1] != 5:
            raise ValueError(f"expected a (..., 5) point array, got {points.shape}")
        ranges = self.ranges()
        low, high = ranges[:, 0], ranges[:, 1]
        scale = np.where(high > low, high - low, 1.0)
        normalized = 2.0 * (points - low) / scale - 1.0
        return np.clip(normalized, -1.5, 1.5)


@dataclass(frozen=True)
class FeatureMapBuilder:
    """Builds fixed-size CNN inputs from (possibly fused) point-cloud frames.

    Parameters
    ----------
    layout:
        How points are arranged on the ``(H, W)`` grid.

        * ``"projection"`` (default) — project every point onto a fixed
          lateral-by-height grid (x across the columns, z across the rows)
          and store the intensity-weighted mean of the five channels in each
          occupied cell.  This is the "sort + matrix transformation"
          preprocessing of MARS expressed as a spatial histogram: the input
          size is independent of the number of points, so multi-frame fusion
          enriches the map (more occupied cells, better-averaged features)
          without changing the model.
        * ``"sorted"`` — the point-list layout: pad/truncate to
          ``num_points`` points, sort them, and reshape the list into the
          grid.  Kept for the input-representation ablation.
    num_points:
        Point budget of the ``"sorted"`` layout (64 in MARS).  Must equal
        ``grid_height * grid_width``.
    grid_height / grid_width:
        Spatial dimensions of the feature map.
    normalization:
        Channel normalization applied to the per-point features.
    x_grid_range / z_grid_range:
        Spatial extent (metres) covered by the projection grid.
    sort_axis:
        Point ordering for the ``"sorted"`` layout: ``"spatial"`` (height
        then lateral position), ``"intensity"`` or ``"none"``.
    selection:
        How the ``"sorted"`` layout reduces an over-full candidate set:
        ``"intensity"`` keeps the strongest returns, ``"random"`` samples
        uniformly from the call's ``rng`` (``default_rng(0)`` when none is
        passed, one generator per call).
    """

    layout: str = "projection"
    num_points: int = 64
    grid_height: int = 8
    grid_width: int = 8
    normalization: FeatureNormalization = FeatureNormalization()
    x_grid_range: Tuple[float, float] = (-0.9, 0.9)
    z_grid_range: Tuple[float, float] = (0.0, 2.0)
    sort_axis: str = "spatial"
    selection: str = "intensity"

    def __post_init__(self) -> None:
        if self.layout not in ("projection", "sorted"):
            raise ValueError(f"unknown layout '{self.layout}'")
        if self.num_points != self.grid_height * self.grid_width:
            raise ValueError(
                f"num_points ({self.num_points}) must equal grid_height * grid_width "
                f"({self.grid_height * self.grid_width})"
            )
        if self.sort_axis not in ("spatial", "intensity", "none"):
            raise ValueError(f"unknown sort_axis '{self.sort_axis}'")
        if self.selection not in ("intensity", "random"):
            raise ValueError(f"unknown selection '{self.selection}'")
        if self.x_grid_range[0] >= self.x_grid_range[1]:
            raise ValueError("x_grid_range must be increasing")
        if self.z_grid_range[0] >= self.z_grid_range[1]:
            raise ValueError("z_grid_range must be increasing")

    # ------------------------------------------------------------------
    # Shape information
    # ------------------------------------------------------------------
    @property
    def num_channels(self) -> int:
        return 5

    @property
    def feature_shape(self) -> Tuple[int, int, int]:
        """Shape of one feature map: ``(channels, height, width)``."""
        return (self.num_channels, self.grid_height, self.grid_width)

    # ------------------------------------------------------------------
    # Core conversion
    # ------------------------------------------------------------------
    def _select(self, points: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """Reduce the candidate point set to at most ``num_points`` rows."""
        if points.shape[0] <= self.num_points:
            return points
        if self.selection == "intensity":
            order = np.argsort(points[:, 4])[::-1]
            return points[order[: self.num_points]]
        if rng is None:
            rng = np.random.default_rng(0)
        chosen = rng.choice(points.shape[0], size=self.num_points, replace=False)
        return points[chosen]

    def _sort(self, points: np.ndarray) -> np.ndarray:
        """Order points so the grid layout is spatially meaningful."""
        if points.shape[0] == 0 or self.sort_axis == "none":
            return points
        if self.sort_axis == "intensity":
            order = np.argsort(points[:, 4])[::-1]
            return points[order]
        # Spatial: sort by height (descending) then lateral position so that
        # consecutive grid rows correspond to horizontal slices of the body.
        order = np.lexsort((points[:, 0], -points[:, 2]))
        return points[order]

    def _build_sorted(self, points: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """The point-list layout: select, sort, normalize, pad and reshape."""
        if points.shape[0] > 0:
            points = self._select(points, rng)
            points = self._sort(points)
            points = self.normalization.apply(points)
        padded = np.zeros((self.num_points, self.num_channels))
        count = min(points.shape[0], self.num_points)
        if count:
            padded[:count] = points[:count]
        grid = padded.reshape(self.grid_height, self.grid_width, self.num_channels)
        return np.ascontiguousarray(grid.transpose(2, 0, 1))

    def _build_projection(self, points: np.ndarray) -> np.ndarray:
        """The spatial-projection layout: intensity-weighted cell averages."""
        feature_map = np.zeros((self.num_channels, self.grid_height, self.grid_width))
        if points.shape[0] == 0:
            return feature_map

        x_low, x_high = self.x_grid_range
        z_low, z_high = self.z_grid_range
        # Column index from the lateral coordinate, row index from height
        # (row 0 = top of the scene so the map reads like an image).
        cols = np.floor(
            (points[:, 0] - x_low) / (x_high - x_low) * self.grid_width
        ).astype(int)
        rows = np.floor(
            (z_high - points[:, 2]) / (z_high - z_low) * self.grid_height
        ).astype(int)
        in_bounds = (
            (cols >= 0) & (cols < self.grid_width) & (rows >= 0) & (rows < self.grid_height)
        )
        if not np.any(in_bounds):
            return feature_map

        points = points[in_bounds]
        rows, cols = rows[in_bounds], cols[in_bounds]
        normalized = self.normalization.apply(points)
        weights = np.maximum(points[:, 4] - points[:, 4].min() + 1.0, 1e-3)

        weight_sum = np.zeros((self.grid_height, self.grid_width))
        np.add.at(weight_sum, (rows, cols), weights)
        for channel in range(self.num_channels):
            accumulator = np.zeros((self.grid_height, self.grid_width))
            np.add.at(accumulator, (rows, cols), weights * normalized[:, channel])
            occupied = weight_sum > 0
            feature_map[channel][occupied] = accumulator[occupied] / weight_sum[occupied]
        return feature_map

    # ------------------------------------------------------------------
    # Batched conversion
    # ------------------------------------------------------------------
    def _build_projection_batch(
        self, points: np.ndarray, frame_ids: np.ndarray, batch: int
    ) -> np.ndarray:
        """Vectorized projection layout for a ragged batch.

        ``points`` is the ``(P, 5)`` concatenation of every frame's points and
        ``frame_ids`` maps each row to its frame.  All per-cell accumulation
        runs through flat ``bincount`` calls over ``frame * cell`` indices, so
        the cost is independent of the number of frames.
        """
        feature_maps = np.zeros((batch, self.num_channels, self.grid_height, self.grid_width))
        if points.shape[0] == 0:
            return feature_maps

        x_low, x_high = self.x_grid_range
        z_low, z_high = self.z_grid_range
        cols = np.floor((points[:, 0] - x_low) / (x_high - x_low) * self.grid_width).astype(int)
        rows = np.floor((z_high - points[:, 2]) / (z_high - z_low) * self.grid_height).astype(int)
        in_bounds = (
            (cols >= 0) & (cols < self.grid_width) & (rows >= 0) & (rows < self.grid_height)
        )
        if not np.any(in_bounds):
            return feature_maps

        points = points[in_bounds]
        rows, cols = rows[in_bounds], cols[in_bounds]
        frame_ids = frame_ids[in_bounds]
        normalized = self.normalization.apply(points)

        # Per-frame intensity floor (the sequential path subtracts the frame
        # minimum of the *in-bounds* points before weighting).
        frame_min = np.full(batch, np.inf)
        np.minimum.at(frame_min, frame_ids, points[:, 4])
        weights = np.maximum(points[:, 4] - frame_min[frame_ids] + 1.0, 1e-3)

        cells = self.grid_height * self.grid_width
        flat = frame_ids * cells + rows * self.grid_width + cols
        weight_sum = np.bincount(flat, weights=weights, minlength=batch * cells)
        occupied = weight_sum > 0
        safe_weight = np.where(occupied, weight_sum, 1.0)
        for channel in range(self.num_channels):
            accumulator = np.bincount(
                flat, weights=weights * normalized[:, channel], minlength=batch * cells
            )
            values = np.where(occupied, accumulator / safe_weight, 0.0)
            feature_maps[:, channel] = values.reshape(batch, self.grid_height, self.grid_width)
        return feature_maps

    def _build_sorted_batch(
        self,
        per_frame_points: list[np.ndarray],
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """Vectorized point-list layout for a ragged batch.

        Frames are padded to a common length with sentinel rows; selection
        and ordering then run as batched ``argsort``/``lexsort`` calls whose
        per-row results match the sequential :meth:`_build_sorted`.
        """
        batch = len(per_frame_points)
        out = np.zeros((batch, self.num_channels, self.grid_height, self.grid_width))
        counts = np.array([p.shape[0] for p in per_frame_points], dtype=int)
        if batch == 0 or counts.max(initial=0) == 0:
            return out

        if self.selection == "random":
            # Random subsampling is inherently per-frame (without-replacement
            # draws of ragged sizes); fall back to the reference path.
            maps = [self._build_sorted(p, rng) for p in per_frame_points]
            return np.stack(maps)

        max_count = int(counts.max())
        padded = np.zeros((batch, max_count, self.num_channels))
        present = np.arange(max_count)[None, :] < counts[:, None]
        for index, pts in enumerate(per_frame_points):
            if pts.shape[0]:
                padded[index, : pts.shape[0]] = pts

        # Selection: keep the strongest ``num_points`` returns per frame.
        # Frames within budget keep their original row order (the sequential
        # path skips selection for them, which matters for sort_axis="none").
        if max_count > self.num_points:
            intensity = np.where(present, padded[:, :, 4], -np.inf)
            by_intensity = np.argsort(intensity, axis=1)[:, ::-1]
            original = np.broadcast_to(np.arange(max_count), (batch, max_count))
            order = np.where((counts > self.num_points)[:, None], by_intensity, original)
            order = order[:, : self.num_points]
            padded = np.take_along_axis(padded, order[:, :, None], axis=1)
            present = np.take_along_axis(present, order, axis=1)

        kept = padded.shape[1]
        # Ordering for the grid layout, with absent rows pushed to the end.
        if self.sort_axis == "intensity":
            key = np.where(present, padded[:, :, 4], -np.inf)
            order = np.argsort(key, axis=1)[:, ::-1]
        elif self.sort_axis == "spatial":
            minus_z = np.where(present, -padded[:, :, 2], np.inf)
            x = np.where(present, padded[:, :, 0], np.inf)
            order = np.lexsort((x, minus_z), axis=1)
        else:  # "none": preserve input order, absent rows already trail
            order = np.broadcast_to(np.arange(kept), (batch, kept))
        padded = np.take_along_axis(padded, order[:, :, None], axis=1)
        present = np.take_along_axis(present, order, axis=1)

        normalized = np.where(present[:, :, None], self.normalization.apply(padded), 0.0)
        result = np.zeros((batch, self.num_points, self.num_channels))
        usable = min(kept, self.num_points)
        result[:, :usable] = normalized[:, :usable]
        grids = result.reshape(batch, self.grid_height, self.grid_width, self.num_channels)
        return np.ascontiguousarray(grids.transpose(0, 3, 1, 2))

    def build(
        self, cloud: PointCloudFrame, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Convert one point-cloud frame into a ``(5, H, W)`` feature map."""
        if self.layout == "projection":
            return self._build_projection(cloud.points)
        return self._build_sorted(cloud.points, rng)

    def build_batch(
        self,
        clouds: Iterable[PointCloudFrame],
        rng: np.random.Generator | None = None,
        vectorized: bool = True,
    ) -> np.ndarray:
        """Convert an iterable of frames into a ``(B, 5, H, W)`` batch.

        The default path vectorizes the conversion across the whole batch
        (one pass over a ragged concatenation of every frame's points);
        ``vectorized=False`` keeps the frame-at-a-time reference path used by
        the equivalence tests.  Under ``selection="random"`` every frame
        draws from ``rng`` in turn; without one, the call draws from its own
        ``default_rng(0)``, so a batch is deterministic and two frames with
        equal point counts still draw different rows.
        """
        per_frame = [np.asarray(cloud.points, dtype=float) for cloud in clouds]
        batch = len(per_frame)
        if batch == 0:
            return np.zeros((0, *self.feature_shape))
        if rng is None and self.layout == "sorted" and self.selection == "random":
            rng = np.random.default_rng(0)
        if not vectorized:
            if self.layout == "projection":
                return np.stack([self._build_projection(p) for p in per_frame])
            return np.stack([self._build_sorted(p, rng) for p in per_frame])
        if self.layout == "projection":
            counts = np.array([p.shape[0] for p in per_frame], dtype=int)
            points = (
                np.concatenate(per_frame, axis=0) if counts.sum() else np.zeros((0, 5))
            )
            frame_ids = np.repeat(np.arange(batch), counts)
            return self._build_projection_batch(points, frame_ids, batch)
        return self._build_sorted_batch(per_frame, rng)

    def build_dataset(
        self,
        samples: Sequence[LabelledFrame],
        rng: np.random.Generator | None = None,
        vectorized: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Convert labelled samples into ``(features, labels)`` arrays.

        Returns feature maps of shape ``(B, 5, H, W)`` and labels of shape
        ``(B, 57)`` (metres).
        """
        features = self.build_batch(
            (sample.cloud for sample in samples), rng=rng, vectorized=vectorized
        )
        if len(samples) == 0:
            return features, np.zeros((0, 57))
        labels = np.stack([sample.label_vector for sample in samples])
        return features, labels
