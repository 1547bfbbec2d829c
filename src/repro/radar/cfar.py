"""Constant false alarm rate (CFAR) detection on range-Doppler maps.

The paper's processing chain removes noise with a CFAR detector before
constructing the point cloud (Section 3.1.1).  This module implements the
classic cell-averaging CFAR (CA-CFAR) in two dimensions plus a peak-grouping
step that collapses clusters of adjacent detections onto local maxima — the
same post-processing the TI mmWave SDK applies before emitting points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "CfarConfig",
    "ca_cfar_2d",
    "ca_cfar_2d_batch",
    "group_peaks",
    "detect_peaks",
    "detect_peaks_batch",
]


@dataclass(frozen=True)
class CfarConfig:
    """CA-CFAR parameters.

    Attributes
    ----------
    guard_cells:
        Half-width (in cells) of the guard window around the cell under test,
        excluded from the noise estimate, per dimension ``(range, doppler)``.
    training_cells:
        Half-width of the training window used to estimate the local noise
        floor, per dimension.
    threshold_db:
        Detection threshold above the estimated noise floor, in dB.
    max_detections:
        Upper bound on the number of detections returned per frame (strongest
        kept), mirroring the point budget of the TI firmware.
    """

    guard_cells: Tuple[int, int] = (2, 2)
    training_cells: Tuple[int, int] = (8, 4)
    threshold_db: float = 9.0
    max_detections: int = 96

    def __post_init__(self) -> None:
        for value in (*self.guard_cells, *self.training_cells):
            if value < 0:
                raise ValueError("CFAR window sizes must be non-negative")
        if self.training_cells[0] + self.training_cells[1] == 0:
            raise ValueError("CFAR needs a non-empty training window")
        if self.max_detections < 1:
            raise ValueError("max_detections must be >= 1")


def _local_noise_estimate(power: np.ndarray, config: CfarConfig) -> np.ndarray:
    """Estimate the local noise floor of each cell from its training ring.

    Implemented with two uniform filters: the mean over the full
    training+guard window minus the mean over the guard window, which is the
    standard separable formulation of 2-D CA-CFAR.  Accepts either one
    ``(R, D)`` map or a ``(B, R, D)`` stack — a window size of one along the
    batch axis keeps every frame's estimate independent.
    """
    # Imported here, not at module level: only the `signal` radar backend
    # runs CFAR, and serving processes reach this module without it.
    from scipy.ndimage import uniform_filter

    guard_r, guard_d = config.guard_cells
    train_r, train_d = config.training_cells

    outer_size = (2 * (guard_r + train_r) + 1, 2 * (guard_d + train_d) + 1)
    inner_size = (2 * guard_r + 1, 2 * guard_d + 1)
    if power.ndim == 3:
        outer_size = (1, *outer_size)
        inner_size = (1, *inner_size)

    outer_mean = uniform_filter(power, size=outer_size, mode="nearest")
    inner_mean = uniform_filter(power, size=inner_size, mode="nearest")

    outer_count = outer_size[-2] * outer_size[-1]
    inner_count = inner_size[-2] * inner_size[-1]
    training_count = outer_count - inner_count

    noise = (outer_mean * outer_count - inner_mean * inner_count) / training_count
    return np.maximum(noise, 1e-12)


def _cfar_mask(power: np.ndarray, config: CfarConfig) -> np.ndarray:
    """Shared CA-CFAR thresholding for 2-D maps and 3-D stacks."""
    noise = _local_noise_estimate(power, config)
    threshold = noise * 10.0 ** (config.threshold_db / 10.0)
    return power > threshold


def ca_cfar_2d(power: np.ndarray, config: CfarConfig | None = None) -> np.ndarray:
    """Run 2-D cell-averaging CFAR and return a boolean detection mask."""
    config = config if config is not None else CfarConfig()
    power = np.asarray(power, dtype=float)
    if power.ndim != 2:
        raise ValueError(f"CFAR expects a 2-D power map, got shape {power.shape}")
    return _cfar_mask(power, config)


def ca_cfar_2d_batch(power: np.ndarray, config: CfarConfig | None = None) -> np.ndarray:
    """Batched CA-CFAR over ``(B, R, D)`` power maps.

    Shares the noise-estimate and threshold formulas with
    :func:`ca_cfar_2d`, so each batch entry equals the per-frame mask.
    """
    config = config if config is not None else CfarConfig()
    power = np.asarray(power, dtype=float)
    if power.ndim != 3:
        raise ValueError(f"batched CFAR expects a (B, R, D) power stack, got {power.shape}")
    return _cfar_mask(power, config)


def group_peaks(power: np.ndarray, mask: np.ndarray, neighborhood: int = 3) -> np.ndarray:
    """Keep only detections that are local maxima of the power map.

    Without grouping, a single strong reflector smears across several
    range-Doppler cells and produces a blob of detections; peak grouping
    collapses each blob to its strongest cell, as the TI SDK does.  Accepts
    one ``(R, D)`` map or a ``(B, R, D)`` stack (the grouping window never
    crosses the batch axis).
    """
    from scipy.ndimage import maximum_filter  # see _local_noise_estimate

    if power.shape != mask.shape:
        raise ValueError("power and mask must have identical shapes")
    size: int | tuple = neighborhood
    if power.ndim == 3:
        size = (1, neighborhood, neighborhood)
    local_max = power == maximum_filter(power, size=size, mode="nearest")
    return mask & local_max


def _top_detections(power: np.ndarray, mask: np.ndarray, max_detections: int) -> np.ndarray:
    """Extract masked cells as ``(N, 2)`` indices sorted by decreasing power."""
    indices = np.argwhere(mask)
    if indices.size == 0:
        return np.zeros((0, 2), dtype=int)
    strengths = power[indices[:, 0], indices[:, 1]]
    order = np.argsort(strengths)[::-1]
    return indices[order][:max_detections]


def detect_peaks(
    power: np.ndarray, config: CfarConfig | None = None, peak_grouping: bool = False
) -> List[Tuple[int, int]]:
    """Full CFAR detection: threshold, optionally group, and cap the peaks.

    Peak grouping (collapsing blobs to local maxima) is optional because the
    TI out-of-box firmware exposes it as a configuration switch; for human
    sensing it is usually left off so that an extended target like a torso
    contributes several points instead of one.

    Returns a list of ``(range_bin, doppler_bin)`` indices sorted by
    decreasing power.
    """
    config = config if config is not None else CfarConfig()
    mask = ca_cfar_2d(power, config)
    if peak_grouping:
        mask = group_peaks(power, mask)
    indices = _top_detections(np.asarray(power, dtype=float), mask, config.max_detections)
    return [(int(r), int(d)) for r, d in indices]


def detect_peaks_batch(
    power: np.ndarray, config: CfarConfig | None = None, peak_grouping: bool = False
) -> List[np.ndarray]:
    """Batched CFAR detection over ``(B, R, D)`` power maps.

    Thresholding (and optional peak grouping) is vectorized across the whole
    batch; only the final ragged top-K extraction runs per frame.  Returns a
    list of ``(N_b, 2)`` integer arrays of ``(range_bin, doppler_bin)``
    indices sorted by decreasing power, matching :func:`detect_peaks`.
    """
    config = config if config is not None else CfarConfig()
    power = np.asarray(power, dtype=float)
    mask = ca_cfar_2d_batch(power, config)
    if peak_grouping:
        mask = group_peaks(power, mask)
    return [
        _top_detections(frame_power, frame_mask, config.max_detections)
        for frame_mask, frame_power in zip(mask, power)
    ]
