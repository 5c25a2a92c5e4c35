"""Unit tests for the command-line interface."""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, cmd_reproduce, main
from repro.harness.reproduce import EXPERIMENTS


class TestGames:
    def test_lists_all_games(self, capsys):
        assert main(["games"]) == 0
        out = capsys.readouterr().out
        for game in ("pong", "tankduel", "brawler", "shooter", "counter"):
            assert game in out
        assert "RC-16 ROM" in out
        assert "python" in out


class TestPlay:
    def test_play_reports_convergence(self, capsys):
        assert main(["play", "--game", "counter", "--frames", "120"]) == 0
        out = capsys.readouterr().out
        assert "replicas identical for all 120 frames" in out
        assert "site 0" in out and "site 1" in out

    def test_play_rom_game(self, capsys):
        assert main(["play", "--game", "pong", "--frames", "90"]) == 0
        assert "identical" in capsys.readouterr().out


class TestAio:
    ARGS = ["aio", "--sessions", "1", "--frames", "90", "--cfps", "120"]

    def test_reports_the_pace_each_site_held(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "matches simulator" in out
        assert out.count("mean frame time") == 2 and "OFF PACE" not in out
        # Reported beside the pace, never judged (wall-clock jitter is noise).
        assert out.count("), deviation ") == 2
        assert out.count("slave - master frame begin: mean ") == 1

    def test_fails_when_the_master_is_off_pace(self, capsys, monkeypatch):
        from repro.metrics.recorder import FrameTrace

        # What the coroutine shell read at 60 fps: every frame 4.5% long.
        monkeypatch.setattr(
            FrameTrace, "frame_times", lambda self: [1.045 / 120] * 89
        )
        assert main(self.ARGS) == 1
        out = capsys.readouterr().out
        assert "matches simulator" in out
        assert out.count("OFF PACE") == 1 and "+4.50% of 1/CFPS" in out


class TestFigures:
    """``repro reproduce`` prints each experiment's table (the session's
    120-frame bundle ran every experiment)."""

    def test_figure1_table(self, quick_reproduction):
        assert "Figure 1" in quick_reproduction.stdout
        assert "RTT(ms)" in quick_reproduction.stdout

    def test_figure2_table(self, quick_reproduction):
        assert "Figure 2" in quick_reproduction.stdout

    def test_loss_table(self, quick_reproduction, tmp_path, capsys):
        """An ID runs that experiment alone, with the same table."""
        assert main(["reproduce", "loss", "--frames", "120", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        table = out[: out.index("wrote ")]
        assert "loss" in table
        assert table in quick_reproduction.stdout
        results = json.loads((tmp_path / "results.json").read_text())
        assert list(results["experiments"]) == ["loss"]
        assert len(results["experiments"]["loss"]) == 6

    def test_every_table_printed_in_order(self, reproduction):
        """With no ID, every registered table is printed, in registry order,
        then where they were written."""
        tables = re.findall(r"## \w+\n\n```\n(.*?)\n```", reproduction.report, re.DOTALL)
        assert len(tables) == len(EXPERIMENTS)
        printed = "".join(table + "\n" for table in tables)
        assert reproduction.stdout.startswith(printed)
        assert reproduction.stdout[len(printed):].startswith("wrote ")

    def test_unknown_experiment_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "figure3"])
        assert "unknown experiment 'figure3'" in capsys.readouterr().err


class TestExperimentsDoc:
    def test_every_command_line_runs_registered_experiments(self):
        """Each EXPERIMENTS.md "Command:" line parses as ``repro
        reproduce`` naming registered experiments, so none can silently
        select nothing."""
        text = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()
        commands = [" ".join(c.split()) for c in re.findall(r"Command: `([^`]+)`", text)]
        assert len(commands) >= 11
        named = set()
        for command in commands:
            words = shlex.split(command)
            assert words[:3] == ["python", "-m", "repro"], command
            args = build_parser().parse_args(words[3:])
            assert args.fn is cmd_reproduce and args.ids, command
            named.update(args.ids)
        assert named == set(EXPERIMENTS)


class TestDisasm:
    def test_disassembles_rom(self, capsys):
        assert main(["disasm", "pong"]) == 0
        out = capsys.readouterr().out
        assert "LDI" in out
        assert "YIELD" in out

    def test_python_game_rejected(self, capsys):
        assert main(["disasm", "brawler"]) == 1
        assert "pure-Python" in capsys.readouterr().err


class TestMovies:
    def test_record_then_replay(self, tmp_path, capsys):
        movie_path = str(tmp_path / "m.json")
        assert main(
            ["record", "--game", "counter", "--frames", "100", "-o", movie_path]
        ) == 0
        assert "recorded 100 frames" in capsys.readouterr().out
        assert main(["replay", movie_path]) == 0
        out = capsys.readouterr().out
        assert "replayed 100 frames" in out
        assert "checkpoints verified" in out


class TestParser:
    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
