"""Tests for the ``fuse-experiment`` command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.experiments import cli
from repro.serve import AdapterPolicy


class TestCli:
    def test_figure2_smoke(self, capsys):
        exit_code = cli.main(["figure2", "--scale", "smoke"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "figure2" in captured
        assert "multi-frame point cloud" in captured

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["table9"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["figure2", "--scale", "galactic"])

    def test_help_lists_experiments(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        text = capsys.readouterr().out
        for name in ("table1", "table2", "figure2", "figure3", "figure4"):
            assert name in text


class TestServeCli:
    """Argument wiring of fuse-serve (fail-fast paths: no training runs)."""

    def test_serve_help_lists_protocol_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fuse-serve", "--help"])
        text = capsys.readouterr().out
        assert "--max-in-flight" in text
        assert "--port" in text
        assert "--protocol" not in text
        assert "--backend" not in text

    def test_invalid_shards_fails_fast(self, capsys):
        assert cli.main(["fuse-serve", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_invalid_window_fails_fast(self, capsys):
        assert cli.main(["fuse-serve", "--max-in-flight", "0"]) == 2
        assert "--max-in-flight" in capsys.readouterr().err

    def test_unknown_protocol_rejected(self):
        # One wire protocol: there is no flag to pick one.
        with pytest.raises(SystemExit):
            cli.main(["fuse-serve", "--protocol", "2"])

    def test_spill_dir_alone_keeps_the_policy_defaults(self, tmp_path):
        """AdapterPolicy owns its defaults: the CLI passes only the flags given."""
        parser = argparse.ArgumentParser()
        cli._add_serve_options(parser)
        args = parser.parse_args(["--adapter-spill-dir", str(tmp_path)])
        assert cli._adapter_policy(args) == AdapterPolicy(spill_dir=str(tmp_path))
        assert cli._adapter_policy(parser.parse_args([])) is None

    def test_scheduling_flags_build_one_policy(self):
        """--max-delay-ms is the interactive budget; with no scheduling flag
        ServeConfig derives the policy itself."""
        parser = argparse.ArgumentParser()
        cli._add_serve_options(parser)
        args = parser.parse_args(
            ["--max-delay-ms", "8", "--bulk-budget-ms", "90", "--rate-limit-per-user", "5"]
        )
        policy = cli._scheduling_from_args(args)
        assert policy.resolve("interactive").budget_ms == 8.0
        assert policy.resolve("bulk").budget_ms == 90.0
        assert policy.rate_limit_per_user == 5.0
        assert cli._scheduling_from_args(parser.parse_args([])) is None
        with pytest.raises(SystemExit):
            parser.parse_args(["--interactive-budget-ms", "8"])

    def test_unix_and_host_mutually_exclusive(self, capsys):
        exit_code = cli.main(["fuse-serve", "--unix", "/tmp/x.sock", "--host", "::1"])
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err
