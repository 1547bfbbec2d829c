#!/usr/bin/env python
"""Benchmark trending: fail CI when throughput regresses vs the baseline.

The slow CI tier regenerates ``BENCH_*.json`` at the repository root.  This
script compares every throughput-like figure (keys containing ``fps``,
``per_sec``, ``tps`` or ``throughput``) in the fresh files against the
committed baseline (``git show <ref>:<file>``) and exits non-zero when any
figure dropped by more than ``--threshold`` (default 30%).

With ``--history DIR`` the script additionally trends against a *rolling
window* of prior benchmark snapshots (e.g. the ``BENCH_*.json`` artifacts of
previous scheduled runs, downloaded into ``DIR/<stem>/``): the fresh figures
are compared against the per-figure median of the window — which is robust
to one noisy run in either direction, unlike the single committed baseline —
and the fresh file is appended to the window afterwards, pruned to
``--history-window`` snapshots.

Usage::

    python scripts/bench_regression.py BENCH_engine.json BENCH_serve.json
    python scripts/bench_regression.py --threshold 0.3 --baseline-ref HEAD BENCH_*.json
    python scripts/bench_regression.py --history .bench-history --run-id "$GITHUB_RUN_ID" \\
        BENCH_engine.json BENCH_serve.json

New figures (present only in the fresh file) and removed figures are
reported but never fail the check, so adding a benchmark does not require a
baseline in the same commit.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

THROUGHPUT_KEY = re.compile(r"(^|_)(fps|tps|per_sec|throughput)($|_)")

# Machine-context keys a benchmark section may record.  Two runs are only
# comparable where this context matches: a figure measured on 4 cores says
# nothing about a 1-core run, and older history snapshots can carry figures
# of the retired "fast" numeric backend, so mismatched sections are pruned
# from the comparison (loudly) instead of producing a bogus regression or a
# bogus pass.
CONTEXT_KEYS = ("cpu_count", "backend")


def section_context(section: dict) -> Dict[str, object]:
    """The machine context a benchmark section recorded (may be empty)."""
    return {key: section[key] for key in CONTEXT_KEYS if key in section}


def split_comparable(
    baseline: dict, fresh: dict
) -> "tuple[dict, dict, List[str]]":
    """Prune sections whose recorded machine context differs between runs.

    Returns ``(baseline, fresh, notices)`` with every section present in
    *both* payloads but carrying a different ``cpu_count``/``backend``
    context removed from both sides — those figures were measured under
    different conditions and must not be trended against each other.  The
    notices describe each pruned section for the run log.  Sections present
    on only one side are left alone (the missing-figure check owns those).
    """
    notices: List[str] = []
    pruned: List[str] = []
    for key in sorted(baseline):
        old, new = baseline.get(key), fresh.get(key)
        if not (isinstance(old, dict) and isinstance(new, dict)):
            continue
        old_ctx, new_ctx = section_context(old), section_context(new)
        if old_ctx != new_ctx:
            pruned.append(key)
            described = ", ".join(
                f"{ctx_key}: {old_ctx.get(ctx_key, '?')} -> {new_ctx.get(ctx_key, '?')}"
                for ctx_key in CONTEXT_KEYS
                if old_ctx.get(ctx_key) != new_ctx.get(ctx_key)
            )
            notices.append(
                f"section '{key}' not compared: machine context differs ({described})"
            )
    if pruned:
        baseline = {key: value for key, value in baseline.items() if key not in pruned}
        fresh = {key: value for key, value in fresh.items() if key not in pruned}
    return baseline, fresh, notices


@dataclass(frozen=True)
class Regression:
    """One throughput figure that dropped beyond the threshold."""

    path: str
    baseline: float
    fresh: float

    @property
    def drop(self) -> float:
        return 1.0 - self.fresh / self.baseline

    def __str__(self) -> str:
        return (
            f"{self.path}: {self.baseline:.2f} -> {self.fresh:.2f} "
            f"({self.drop:+.1%} drop)"
        )


def throughput_figures(payload, prefix: str = "") -> Dict[str, float]:
    """Flatten a benchmark JSON to ``dotted.path -> value`` throughput leaves."""
    figures: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                figures.update(throughput_figures(value, path))
            elif isinstance(value, (int, float)) and THROUGHPUT_KEY.search(str(key)):
                figures[path] = float(value)
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            figures.update(throughput_figures(value, f"{prefix}[{index}]"))
    return figures


def compare(baseline: dict, fresh: dict, threshold: float) -> List[Regression]:
    """Throughput figures that dropped by more than ``threshold`` (a fraction)."""
    return compare_figures(
        throughput_figures(baseline), throughput_figures(fresh), threshold
    )


def missing_from_fresh(baseline: dict, fresh: dict) -> List[str]:
    """Readable descriptions of baseline content absent from the fresh run.

    A benchmark section (top-level key) or an individual throughput figure
    that exists in the committed baseline but not in the fresh file means
    the current run silently skipped work the gate is supposed to watch —
    e.g. a renamed section, or a bench that crashed before recording.  The
    caller turns these into check failures with a readable message instead
    of the bare ``KeyError`` a naive lookup would raise.
    """
    problems: List[str] = []
    missing_sections = [
        key
        for key, value in baseline.items()
        if isinstance(value, dict) and key not in fresh
    ]
    for section in sorted(missing_sections):
        problems.append(
            f"section '{section}' exists in the baseline but is missing from "
            "the current run (renamed bench? crashed before recording?)"
        )
    baseline_figures = throughput_figures(baseline)
    fresh_figures = throughput_figures(fresh)
    for path in sorted(baseline_figures):
        section = path.split(".", 1)[0]
        if section in missing_sections:
            continue  # already reported at section granularity
        if path not in fresh_figures:
            problems.append(
                f"throughput figure '{path}' exists in the baseline but is "
                "missing from the current run"
            )
    return problems


def load_baseline(name: str, ref: str) -> Optional[dict]:
    """The committed version of ``name`` at ``ref``, or ``None`` if absent."""
    result = subprocess.run(
        ["git", "show", f"{ref}:{name}"], capture_output=True, text=True
    )
    if result.returncode != 0:
        return None
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError:
        return None


# ----------------------------------------------------------------------
# Rolling history window
# ----------------------------------------------------------------------
def history_dir_for(history_root: Path, name: str) -> Path:
    """Snapshots of one benchmark file live under ``<root>/<stem>/``."""
    return history_root / Path(name).stem


def load_history(history_root: Path, name: str) -> List[dict]:
    """Every parseable snapshot of ``name``, oldest first (by file name).

    Snapshot names sort chronologically (run ids or UTC timestamps), so a
    plain lexicographic order is the trend order.
    """
    directory = history_dir_for(history_root, name)
    if not directory.is_dir():
        return []
    snapshots: List[dict] = []
    for path in sorted(directory.glob("*.json")):
        try:
            snapshots.append(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError):
            continue  # a torn artifact must not break the trend check
    return snapshots


def history_baseline(snapshots: List[dict]) -> dict:
    """Per-figure median over a history window, as a flat figure dict.

    The median tolerates a single outlier run in either direction, which a
    lone committed baseline cannot.
    """
    pooled: Dict[str, List[float]] = {}
    for snapshot in snapshots:
        for path, value in throughput_figures(snapshot).items():
            pooled.setdefault(path, []).append(value)
    baseline: Dict[str, float] = {}
    for path, values in pooled.items():
        ordered = sorted(values)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            baseline[path] = ordered[middle]
        else:
            baseline[path] = (ordered[middle - 1] + ordered[middle]) / 2.0
    return baseline


def compare_figures(
    baseline_figures: Dict[str, float], fresh_figures: Dict[str, float], threshold: float
) -> List[Regression]:
    """Like :func:`compare`, over already-flattened figure dicts."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be a fraction in (0, 1)")
    regressions: List[Regression] = []
    for path, old in sorted(baseline_figures.items()):
        new = fresh_figures.get(path)
        if new is None or old <= 0:
            continue
        if new < old * (1.0 - threshold):
            regressions.append(Regression(path=path, baseline=old, fresh=new))
    return regressions


def append_history(
    history_root: Path, name: str, fresh: dict, run_id: str, window: int
) -> Path:
    """Add the fresh snapshot to the rolling window and prune the oldest.

    Returns the path the snapshot was written to.  ``window`` bounds the
    number of retained snapshots per benchmark file.  Ordering — both for
    pruning and for :func:`load_history` — is lexicographic on the file
    name, so ``run_id`` must sort chronologically; :func:`main` guarantees
    this by prefixing every id with the UTC timestamp (a raw CI run counter
    would mis-sort when it grows a digit).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    directory = history_dir_for(history_root, name)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{run_id}.json"
    path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    snapshots = sorted(directory.glob("*.json"))
    while len(snapshots) > window:
        snapshots.pop(0).unlink()
    return path


def default_run_id() -> str:
    """A lexicographically sortable snapshot id (UTC timestamp)."""
    return time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="fresh BENCH_*.json files to check")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated fractional throughput drop (default 0.30)",
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref holding the baseline files (default HEAD)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=None,
        help="directory of prior benchmark snapshots (e.g. downloaded workflow "
        "artifacts); enables the rolling-window trend check",
    )
    parser.add_argument(
        "--history-window",
        type=int,
        default=10,
        help="snapshots retained per benchmark file in the history (default 10)",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        help="snapshot id suffix for the history entry (e.g. the CI run id); "
        "the UTC timestamp is always prefixed so the window sorts "
        "chronologically",
    )
    args = parser.parse_args(argv)
    run_id = default_run_id()
    if args.run_id is not None:
        run_id = f"{run_id}-{args.run_id}"

    failures: List[str] = []
    for name in args.files:
        fresh_path = Path(name)
        if not fresh_path.exists():
            print(f"[bench-regression] {name}: fresh file missing, skipping")
            continue
        try:
            fresh = json.loads(fresh_path.read_text())
        except json.JSONDecodeError as error:
            failures.append(f"{name}: fresh file is not valid JSON ({error})")
            continue
        baseline = load_baseline(name, args.baseline_ref)
        if baseline is None:
            print(
                f"[bench-regression] {name}: no baseline at {args.baseline_ref}, skipping"
            )
        else:
            comparable_baseline, comparable_fresh, notices = split_comparable(
                baseline, fresh
            )
            for notice in notices:
                print(f"[bench-regression] {name}: {notice}")
            regressions = compare(comparable_baseline, comparable_fresh, args.threshold)
            checked = len(throughput_figures(comparable_baseline))
            for regression in regressions:
                failures.append(f"{name}: {regression}")
            missing = missing_from_fresh(comparable_baseline, comparable_fresh)
            for problem in missing:
                failures.append(f"{name}: {problem}")
            print(
                f"[bench-regression] {name}: {checked} throughput figures checked, "
                f"{len(regressions)} regressed beyond {args.threshold:.0%}, "
                f"{len(missing)} baseline entries missing from the fresh run"
                + (f", {len(notices)} section(s) skipped (context mismatch)" if notices else "")
            )

        if args.history is None:
            continue
        snapshots = load_history(args.history, name)
        if snapshots:
            comparable_snapshots = []
            snapshot_notices: set = set()
            for snapshot in snapshots:
                pruned_snapshot, _, notices = split_comparable(snapshot, fresh)
                comparable_snapshots.append(pruned_snapshot)
                snapshot_notices.update(notices)
            for notice in sorted(snapshot_notices):
                print(f"[bench-regression] {name} (history): {notice}")
            trend = history_baseline(comparable_snapshots)
            history_regressions = compare_figures(
                trend, throughput_figures(fresh), args.threshold
            )
            for regression in history_regressions:
                failures.append(f"{name} (history median): {regression}")
            print(
                f"[bench-regression] {name}: trend over {len(snapshots)} snapshot(s), "
                f"{len(history_regressions)} regressed beyond {args.threshold:.0%} "
                "of the median"
            )
        else:
            print(f"[bench-regression] {name}: no history yet, starting the window")
        append_history(args.history, name, fresh, run_id, args.history_window)

    if failures:
        print("\nThroughput regressions detected:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
