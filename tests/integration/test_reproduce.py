"""Integration: the one-command reproduction runner.

The session's shared bundles (``tests/conftest.py``) serve the presence
and report checks; this module runs the registry once more, at 120
frames, for the progress and determinism checks.
"""

import json
import re

import pytest

from repro.harness.reproduce import EXPERIMENTS, write_reproduction

EXPECTED_EXPERIMENTS = set(EXPERIMENTS)


def tables(report: str) -> dict:
    """report.md's tables by experiment, in order."""
    return dict(re.findall(r"## (\w+)\n\n```\n(.*?)\n```", report, re.DOTALL))


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    """A second 120-frame run of every experiment: (report, payload, progress)."""
    messages = []
    report_path, json_path = write_reproduction(
        str(tmp_path_factory.mktemp("rerun")), frames=120, progress=messages.append
    )
    with open(report_path) as handle:
        report = handle.read()
    with open(json_path) as handle:
        return report, json.load(handle), messages


class TestRunReproduction:
    def test_all_experiments_present(self, reproduction):
        assert set(reproduction.payload["experiments"]) == EXPECTED_EXPERIMENTS
        by_name = tables(reproduction.report)
        for name, rows in reproduction.payload["experiments"].items():
            assert rows, f"{name} produced no rows"
            assert by_name.get(name, "").strip(), f"{name} produced no table"

    def test_progress_callback_called(self, rerun):
        report, __, messages = rerun
        assert messages == list(tables(report).values())
        assert len(messages) == len(EXPECTED_EXPERIMENTS)


class TestWriteReproduction:
    def test_writes_report_and_json(self, reproduction):
        assert "Figure 1" in reproduction.report
        assert "Ablation 5" in reproduction.report

        payload = reproduction.payload
        assert set(payload["experiments"]) == EXPECTED_EXPERIMENTS
        figure1 = payload["experiments"]["figure1"]
        assert all("frame_time_mean" in row for row in figure1)
        assert payload["meta"]["frames"] == 420

    def test_json_is_regression_comparable(self, quick_reproduction, rerun):
        """Two runs at the same fidelity produce identical numbers and
        tables, experiment by experiment."""
        report, payload, __ = rerun
        assert set(payload["experiments"]) == EXPECTED_EXPERIMENTS
        first_tables, second_tables = tables(quick_reproduction.report), tables(report)
        for name in EXPERIMENTS:
            assert quick_reproduction.payload["experiments"][name] == payload["experiments"][name], name
            assert first_tables[name] == second_tables[name], name
