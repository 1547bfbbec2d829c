"""End-to-end smoke tests for the experiment drivers (smoke scale).

These do not validate the paper's quantitative claims — that is the
benchmark harness's job at CI scale — they verify that every driver runs end
to end, produces well-formed results and renders its report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.finetune import FineTuneConfig
from repro.experiments import adaptation, figure2, figure3, figure4, table1, table2
from repro.experiments.scale import get_scale


@pytest.fixture(scope="module")
def smoke_scale():
    return get_scale("smoke")


@pytest.fixture(scope="module")
def smoke_adaptation(smoke_scale):
    adaptation.clear_cache()
    return adaptation.run_adaptation(smoke_scale)


class TestTable1Driver:
    @pytest.fixture(scope="class")
    def result(self, smoke_scale):
        return table1.run_table1(smoke_scale)

    def test_rows_cover_requested_settings(self, result, smoke_scale):
        assert [row.num_context_frames for row in result.rows] == list(smoke_scale.fusion_settings)

    def test_mae_values_positive_and_finite(self, result):
        for row in result.rows:
            for value in (row.mae_x, row.mae_y, row.mae_z, row.mae_average):
                assert np.isfinite(value) and value > 0

    def test_average_consistent_with_axes(self, result):
        for row in result.rows:
            assert row.mae_average == pytest.approx(
                np.mean([row.mae_x, row.mae_y, row.mae_z]), abs=1e-6
            )

    def test_row_lookup_and_improvement(self, result):
        assert result.row_for(0).setting == "single-frame"
        assert result.improvement_percent() is not None

    def test_format_contains_measured_and_paper_tables(self, result):
        text = table1.format_table1(result)
        assert "Table 1 (measured" in text
        assert "Table 1 (paper)" in text
        assert "single-frame" in text


class TestAdaptationDriver:
    def test_both_scopes_and_models_present(self, smoke_adaptation):
        assert set(smoke_adaptation.curves) == {"all", "last"}
        for scope in ("all", "last"):
            assert set(smoke_adaptation.curves[scope]) == {"baseline", "fuse"}

    def test_curve_lengths_match_epochs(self, smoke_adaptation, smoke_scale):
        curves = smoke_adaptation.model_curves("all", "baseline")
        assert len(curves.new_curve()) == smoke_scale.finetune_all.epochs + 1
        assert len(curves.original_curve()) == smoke_scale.finetune_all.epochs + 1

    def test_summary_rows_structure(self, smoke_adaptation):
        rows = smoke_adaptation.summary_rows("all", snapshot_epochs=(1, 3))
        assert [row["snapshot"] for row in rows] == ["1 epochs", "Intersection", "3 epochs"]
        for row in rows:
            for key in ("baseline_original", "baseline_new", "fuse_original", "fuse_new"):
                assert np.isfinite(row[key])

    def test_forgetting_statistic_finite(self, smoke_adaptation):
        assert np.isfinite(smoke_adaptation.forgetting("all", "baseline"))
        assert np.isfinite(smoke_adaptation.forgetting("all", "fuse"))

    def test_cache_returns_same_object(self, smoke_adaptation, smoke_scale):
        again = adaptation.run_adaptation(smoke_scale)
        assert again is smoke_adaptation

    def test_overridden_budget_misses_the_cache(self, smoke_adaptation, smoke_scale):
        one_epoch = smoke_scale.with_overrides(
            finetune_all=FineTuneConfig(epochs=1, scope="all")
        )
        result = adaptation.run_adaptation(one_epoch)
        assert result is not smoke_adaptation
        assert len(result.model_curves("all", "baseline").new_curve()) == 2

    def test_worker_count_still_hits_the_cache(self, smoke_adaptation, smoke_scale):
        assert adaptation.run_adaptation(smoke_scale.with_workers(2)) is smoke_adaptation

    def test_table2_formatting(self, smoke_adaptation):
        text = table2.format_table2(smoke_adaptation)
        assert "Table 2 (measured" in text
        assert "All layers" in text and "Last layer" in text

    def test_figure3_formatting(self, smoke_adaptation):
        text = figure3.format_figure3(smoke_adaptation)
        assert "Figure 3" in text
        assert "original data" in text and "new data" in text

    def test_figure4_formatting(self, smoke_adaptation):
        text = figure4.format_figure4(smoke_adaptation)
        assert "Figure 4" in text
        assert "scope='last'" in text


class TestFigure2Driver:
    @pytest.fixture(scope="class")
    def result(self, smoke_scale):
        return figure2.run_figure2(smoke_scale, frame_index=10)

    def test_fused_frame_denser_than_single(self, result):
        assert result.fused_points > 1.5 * result.single_points
        assert result.fused_coverage >= result.single_coverage
        assert result.enrichment_factor() > 1.5

    def test_upper_body_coverage_improves(self, result):
        assert result.upper_body_fused >= result.upper_body_single

    def test_formatting(self, result):
        text = figure2.format_figure2(result)
        assert "single-frame point cloud" in text
        assert "multi-frame point cloud" in text
        assert "enrichment factor" in text
