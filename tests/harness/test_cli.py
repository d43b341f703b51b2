"""Tests for the repro-run CLI."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.harness import runner
from repro.harness.cli import build_parser, main

from tests.helpers import child_env


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == 1 and args.input == "primary"

    def test_experiment_list(self):
        args = build_parser().parse_args(["table1", "fig5"])
        assert args.experiments == ["table1", "fig5"]


class TestPerfFlags:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.engine == "predecoded"
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["table1", "--engine", "interpreter", "--jobs", "4", "--cache-dir", "/tmp/c"]
        )
        assert args.engine == "interpreter"
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"

    def test_cache_dir_wired_through_main(self, capsys, tmp_path):
        from repro.harness.runner import cache_directory, set_cache_dir

        cache = tmp_path / "cache"
        try:
            code = main(
                [
                    "table2",
                    "--workloads",
                    "compress",
                    "--cache-dir",
                    str(cache),
                ]
            )
            assert code == 0
            assert cache_directory() == str(cache)
            assert list(cache.glob("*.pkl"))
        finally:
            set_cache_dir(None)

    def test_no_cache_overrides(self, capsys, tmp_path):
        from repro.harness.runner import cache_directory, set_cache_dir

        set_cache_dir(str(tmp_path))
        try:
            code = main(["table2", "--workloads", "compress", "--no-cache"])
            assert code == 0
            assert cache_directory() is None
        finally:
            set_cache_dir(None)


class TestRobustnessFlags:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.strict is True
        assert args.retries == 2
        assert args.timeout_s is None
        assert args.faults is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "table1",
                "--no-strict",
                "--retries",
                "5",
                "--timeout-s",
                "2.5",
                "--faults",
                "worker.crash:go",
            ]
        )
        assert args.strict is False
        assert args.retries == 5
        assert args.timeout_s == 2.5
        assert args.faults == "worker.crash:go"

    def test_non_strict_faulted_run_exits_3_with_artifacts(self, capsys, tmp_path):
        """A partial run still writes the markdown + manifest, flags the
        failures in both, and exits non-zero."""
        markdown = tmp_path / "report.md"
        code = main(
            [
                "table1",
                "--workloads",
                "compress,go",
                "--no-strict",
                "--faults",
                "asm.error:go",
                "--markdown",
                str(markdown),
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "== failures (1) ==" in out
        text = markdown.read_text()
        assert "## Failures" in text
        assert "compile-error" in text and "go" in text
        import json

        manifest = json.loads((tmp_path / "report.md.manifest.json").read_text())
        assert manifest["partial"] is True
        assert manifest["failures"]["go"]["kind"] == "compile-error"

    def test_strict_faulted_run_raises(self):
        from repro.asm.errors import AsmError

        with pytest.raises(AsmError):
            main(["table1", "--workloads", "go", "--faults", "asm.error:go"])

    def test_clean_run_with_flags_exits_0(self, capsys):
        code = main(
            ["table2", "--workloads", "compress", "--no-strict", "--retries", "1"]
        )
        assert code == 0


class TestProfileFlag:
    def test_all_cache_hits_say_no_analyzer_ran(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_DISK_CACHE", None)
        monkeypatch.setattr(runner, "_DISK_RESOLVED", False)
        argv = ["table1", "--workloads", "compress", "--cache-dir", str(tmp_path), "--profile"]
        profiles = []
        for _ in range(2):  # cold, then warm from the disk cache only
            monkeypatch.setattr(runner, "_CACHE", {})
            assert main(argv) == 0
            profiles.append(capsys.readouterr().out.split("== profile ==")[1])
        cold, warm = profiles
        assert "FunctionAnalyzer" in cold and "TOTAL" in cold
        assert "no analyzer ran: every result came from a cache" in warm
        assert "TOTAL" not in warm and "calls" not in warm


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig6" in out

    def test_no_selection_errors(self, capsys):
        assert main([]) == 2

    def test_unknown_experiment_errors(self, capsys):
        assert main(["tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_single_experiment_on_subset(self, capsys):
        code = main(["table2", "--workloads", "m88ksim"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "m88ksim" in out

    @pytest.mark.parametrize(
        "argv",
        [["--list"], ["table1", "--workloads", "compress", "--no-cache"]],
        ids=["list", "table1"],
    )
    def test_closed_pipe_exits_quietly(self, argv):
        """``repro-run ... | head``: the reader is gone before the output."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
