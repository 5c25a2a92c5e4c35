"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


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
    def test_figure1_table(self, capsys):
        assert main(["figure1", "--frames", "120"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "RTT(ms)" in out

    def test_figure2_table(self, capsys):
        assert main(["figure2", "--frames", "120"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_loss_table(self, capsys):
        assert main(["loss", "--frames", "120"]) == 0
        assert "loss" in capsys.readouterr().out


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
