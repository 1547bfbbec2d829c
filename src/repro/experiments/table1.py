"""Table 1 — MAE of the baseline model under different frame-fusion settings.

The paper trains the baseline CNN three times — on single frames, 3-frame
fusion and 5-frame fusion — with everything else held fixed (default
60/20/20 per-movement split, batch size 128) and reports the per-axis MAE.
The published numbers are 5.5 cm (single), 3.6 cm (3 frames, a 34%
improvement) and 5.5 cm (5 frames), i.e. fusion helps but only up to a
point.  This driver regenerates that table on the synthetic dataset.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.pipeline import FuseConfig, FusePoseEstimator
from ..dataset.splits import per_movement_split
from ..dataset.synthetic import generate_dataset
from ..viz.tables import format_table
from .scale import ExperimentScale, get_scale

__all__ = ["Table1Row", "Table1Result", "run_table1", "format_table1", "main"]

#: The values published in Table 1 of the paper, for side-by-side comparison.
PAPER_TABLE1 = {
    "single-frame": {"X (cm)": 6.4, "Y (cm)": 3.6, "Z (cm)": 6.5, "Average (cm)": 5.5},
    "fuse 3 frames": {"X (cm)": 4.2, "Y (cm)": 2.5, "Z (cm)": 4.4, "Average (cm)": 3.6},
    "fuse 5 frames": {"X (cm)": 6.9, "Y (cm)": 4.1, "Z (cm)": 5.5, "Average (cm)": 5.5},
}


@dataclass
class Table1Row:
    """One row of Table 1."""

    setting: str
    num_context_frames: int
    mae_x: float
    mae_y: float
    mae_z: float
    mae_average: float


@dataclass
class Table1Result:
    """The regenerated Table 1."""

    rows: List[Table1Row] = field(default_factory=list)
    scale_name: str = "ci"

    def row_for(self, num_context_frames: int) -> Table1Row:
        for row in self.rows:
            if row.num_context_frames == num_context_frames:
                return row
        raise KeyError(f"no row for M={num_context_frames}")

    def improvement_percent(self) -> Optional[float]:
        """Relative MAE improvement of 3-frame fusion over single-frame."""
        try:
            single = self.row_for(0).mae_average
            fused = self.row_for(1).mae_average
        except KeyError:
            return None
        if single <= 0:
            return None
        return 100.0 * (single - fused) / single


def _setting_name(num_context_frames: int) -> str:
    if num_context_frames == 0:
        return "single-frame"
    return f"fuse {2 * num_context_frames + 1} frames"


def run_table1(
    scale: ExperimentScale | str = "ci", verbose: bool = False
) -> Table1Result:
    """Train the baseline under every fusion setting and collect the MAE rows."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    dataset = generate_dataset(scale.dataset, plan=scale.plan)
    split = per_movement_split(dataset)

    result = Table1Result(scale_name=scale.name)
    for num_context_frames in scale.fusion_settings:
        if verbose:
            print(f"[table1] training with M={num_context_frames}")
        estimator = FusePoseEstimator(
            FuseConfig(
                num_context_frames=num_context_frames,
                training=scale.training,
                model_seed=0,
            )
        )
        train_arrays = estimator.prepare(split.train)
        test_arrays = estimator.prepare(split.test)
        estimator.fit_supervised(train_arrays, epochs=scale.training.epochs)
        report = estimator.evaluate(test_arrays)
        result.rows.append(
            Table1Row(
                setting=_setting_name(num_context_frames),
                num_context_frames=num_context_frames,
                mae_x=report.mae_x,
                mae_y=report.mae_y,
                mae_z=report.mae_z,
                mae_average=report.mae_average,
            )
        )
        if verbose:
            print(f"[table1] M={num_context_frames}: {report.as_row()}")
    return result


def format_table1(result: Table1Result, include_paper: bool = True) -> str:
    """Render the regenerated Table 1 (optionally with the paper's values)."""
    headers = ["setting", "X (cm)", "Y (cm)", "Z (cm)", "Average (cm)"]
    rows = [
        [row.setting, row.mae_x, row.mae_y, row.mae_z, row.mae_average] for row in result.rows
    ]
    text = format_table(
        headers,
        rows,
        title=f"Table 1 (measured, scale={result.scale_name}): "
        "MAE of the baseline model under different frame fusion settings",
    )
    improvement = result.improvement_percent()
    if improvement is not None:
        text += f"\n3-frame fusion improvement over single-frame: {improvement:.1f}% (paper: 34%)"
    if include_paper:
        paper_rows = [
            [name, values["X (cm)"], values["Y (cm)"], values["Z (cm)"], values["Average (cm)"]]
            for name, values in PAPER_TABLE1.items()
        ]
        text += "\n\n" + format_table(headers, paper_rows, title="Table 1 (paper)")
    return text


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point: ``python -m repro.experiments.table1``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", help="experiment scale preset (paper/ci/smoke)")
    args = parser.parse_args(argv)
    result = run_table1(args.scale, verbose=True)
    print(format_table1(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
