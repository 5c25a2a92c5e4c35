"""Integration: the one-command reproduction runner.

The whole reproduction runs twice in this module: once, shared, for the
presence, progress and report checks, and once more, independently, for
the determinism check.
"""

import json
import os
import re

import pytest

from repro.harness.reproduce import write_reproduction

EXPECTED_EXPERIMENTS = {
    "figure1",
    "figure2",
    "loss",
    "ablation_pacing",
    "ablation_transport",
    "ablation_lag",
    "ablation_batching",
    "ablation_adaptive",
}


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    """One 120-frame reproduction: (report text, JSON payload, progress)."""
    messages = []
    report_path, json_path = write_reproduction(
        str(tmp_path_factory.mktemp("shared")), frames=120, progress=messages.append
    )
    assert os.path.exists(report_path)
    assert os.path.exists(json_path)
    with open(report_path) as handle:
        report = handle.read()
    with open(json_path) as handle:
        payload = json.load(handle)
    return report, payload, messages


class TestRunReproduction:
    def test_all_experiments_present(self, reproduction):
        report, payload, __ = reproduction
        assert set(payload["experiments"]) == EXPECTED_EXPERIMENTS
        for name, rows in payload["experiments"].items():
            assert rows, f"{name} produced no rows"
            table = re.search(rf"## {name}\n\n```\n(.*?)\n```", report, re.DOTALL)
            assert table and table.group(1).strip(), f"{name} produced no table"

    def test_progress_callback_called(self, reproduction):
        __, __, messages = reproduction
        assert len(messages) == len(EXPECTED_EXPERIMENTS)


class TestWriteReproduction:
    def test_writes_report_and_json(self, reproduction):
        report, payload, __ = reproduction
        assert "Figure 1" in report
        assert "Ablation 5" in report

        assert set(payload["experiments"]) == EXPECTED_EXPERIMENTS
        figure1 = payload["experiments"]["figure1"]
        assert all("frame_time_mean" in row for row in figure1)
        assert payload["meta"]["frames"] == 120

    def test_json_is_regression_comparable(self, reproduction, tmp_path):
        """Two runs at the same fidelity produce identical numbers."""
        __, json_b = write_reproduction(str(tmp_path / "b"), frames=120)
        with open(json_b) as handle:
            b = json.load(handle)["experiments"]
        assert reproduction[1]["experiments"] == b
