"""Tests for the radar configuration and its derived quantities."""

from __future__ import annotations

import pytest

from repro.radar.config import SPEED_OF_LIGHT, RadarConfig


class TestDerivedQuantities:
    def test_wavelength_at_77ghz(self):
        config = RadarConfig(carrier_frequency=77e9)
        assert config.wavelength == pytest.approx(3.89e-3, rel=1e-2)

    def test_range_resolution_formula(self):
        config = RadarConfig(bandwidth=4.0e9)
        assert config.range_resolution == pytest.approx(SPEED_OF_LIGHT / (2 * 4.0e9))

    def test_default_range_resolution_is_centimetres(self):
        # The IWR1443-class sweep gives a few-centimetre range resolution.
        assert 0.02 < RadarConfig().range_resolution < 0.08

    def test_max_range_covers_indoor_scene(self):
        assert RadarConfig().max_range > 4.0

    def test_velocity_resolution_formula(self):
        config = RadarConfig()
        expected = config.wavelength / (2 * config.num_chirps * config.chirp_repetition)
        assert config.velocity_resolution == pytest.approx(expected)

    def test_max_velocity_covers_human_motion(self):
        # Fast limb motion reaches ~2 m/s; the radar must not alias it.
        assert RadarConfig().max_velocity >= 2.0

    def test_virtual_antenna_count(self):
        config = RadarConfig(num_azimuth_antennas=8, num_elevation_antennas=2)
        assert config.num_virtual_antennas == 16

    def test_chirp_slope(self):
        config = RadarConfig(bandwidth=2e9, chirp_duration=50e-6)
        assert config.chirp_slope == pytest.approx(2e9 / 50e-6)

    def test_sample_rate(self):
        config = RadarConfig(num_samples=128, chirp_duration=64e-6)
        assert config.sample_rate == pytest.approx(2e6)

    def test_noise_power_is_linear_scale(self):
        config = RadarConfig(noise_figure_db=-30.0)
        assert config.noise_power == pytest.approx(1e-3)

    def test_describe_mentions_key_figures(self):
        text = RadarConfig().describe()
        assert "GHz" in text and "range res" in text and "virtual antennas" in text


class TestConstructorsAndValidation:
    def test_default_equals_iwr1443_default(self):
        assert RadarConfig() == RadarConfig.iwr1443_default()

    def test_low_resolution_is_cheaper(self):
        low = RadarConfig.low_resolution()
        default = RadarConfig()
        assert low.num_samples * low.num_chirps < default.num_samples * default.num_chirps

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError):
            RadarConfig(bandwidth=-1.0)

    def test_rejects_chirp_repetition_shorter_than_chirp(self):
        with pytest.raises(ValueError):
            RadarConfig(chirp_duration=100e-6, chirp_repetition=50e-6)

    def test_rejects_too_few_chirps(self):
        with pytest.raises(ValueError):
            RadarConfig(num_chirps=1)

    def test_rejects_single_azimuth_antenna(self):
        with pytest.raises(ValueError):
            RadarConfig(num_azimuth_antennas=1)

    def test_rejects_non_positive_frame_period(self):
        with pytest.raises(ValueError):
            RadarConfig(frame_period=0.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            RadarConfig().bandwidth = 1e9  # type: ignore[misc]
