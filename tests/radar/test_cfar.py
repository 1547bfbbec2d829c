"""Tests for the CA-CFAR detector."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.radar.cfar import CfarConfig, ca_cfar_2d, detect_peaks, group_peaks


def noise_map(shape=(64, 32), seed=0, level=1.0):
    rng = np.random.default_rng(seed)
    # Exponentially distributed power (complex Gaussian noise magnitude squared).
    return rng.exponential(scale=level, size=shape)


class TestCfarConfig:
    def test_defaults_valid(self):
        CfarConfig()

    def test_rejects_negative_windows(self):
        with pytest.raises(ValueError):
            CfarConfig(guard_cells=(-1, 2))

    def test_rejects_empty_training_window(self):
        with pytest.raises(ValueError):
            CfarConfig(training_cells=(0, 0))

    def test_rejects_zero_max_detections(self):
        with pytest.raises(ValueError):
            CfarConfig(max_detections=0)


class TestCaCfar:
    def test_detects_strong_injected_target(self):
        power = noise_map()
        power[30, 16] = 500.0
        mask = ca_cfar_2d(power, CfarConfig())
        assert mask[30, 16]

    def test_low_false_alarm_rate_on_pure_noise(self):
        power = noise_map(seed=3)
        mask = ca_cfar_2d(power, CfarConfig(threshold_db=12.0))
        assert mask.mean() < 0.01

    def test_adapts_to_noise_floor_changes(self):
        """A target must be detected relative to its LOCAL noise level."""
        power = noise_map(seed=1)
        power[:, 16:] *= 100.0  # high-noise region
        power[10, 4] = 60.0  # strong relative to the low-noise region only
        mask = ca_cfar_2d(power, CfarConfig())
        assert mask[10, 4]

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError):
            ca_cfar_2d(np.zeros(10))

    def test_threshold_monotonicity(self):
        power = noise_map(seed=2)
        power[20, 10] = 30.0
        low = ca_cfar_2d(power, CfarConfig(threshold_db=6.0)).sum()
        high = ca_cfar_2d(power, CfarConfig(threshold_db=15.0)).sum()
        assert high <= low


class TestGroupPeaks:
    def test_collapses_blob_to_single_peak(self):
        power = np.ones((20, 20))
        power[9:12, 9:12] = [[5, 6, 5], [6, 9, 6], [5, 6, 5]]
        mask = power > 4
        grouped = group_peaks(power, mask)
        assert grouped.sum() == 1
        assert grouped[10, 10]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            group_peaks(np.zeros((4, 4)), np.zeros((5, 5), dtype=bool))


class TestDetectPeaks:
    def test_returns_sorted_by_power(self):
        power = noise_map(seed=5)
        power[10, 5] = 200.0
        power[40, 20] = 400.0
        peaks = detect_peaks(power, CfarConfig())
        assert peaks[0] == (40, 20)
        assert (10, 5) in peaks

    def test_respects_max_detections(self):
        power = noise_map(seed=6)
        strong = np.random.default_rng(1).choice(64 * 32, size=40, replace=False)
        power.flat[strong] = 300.0
        peaks = detect_peaks(power, CfarConfig(max_detections=8))
        assert len(peaks) <= 8

    def test_empty_on_flat_map(self):
        peaks = detect_peaks(np.ones((32, 32)), CfarConfig())
        assert peaks == []

    def test_peak_grouping_flag_reduces_detections(self):
        power = noise_map(seed=7)
        power[20:23, 10:13] = 300.0
        ungrouped = detect_peaks(power, CfarConfig(), peak_grouping=False)
        grouped = detect_peaks(power, CfarConfig(), peak_grouping=True)
        assert len(grouped) <= len(ungrouped)


def test_serving_import_leaves_scipy_unloaded():
    """Only the signal backend's CFAR calls scipy, so a serving process that
    imports ``repro.serve`` (and, through it, this module) never loads it."""
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, repro.serve\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
