"""Integration: the paper-claims validator."""

import json

import pytest

from repro.harness.validate import (
    CLAIMS,
    ClaimResult,
    validate_file,
    validate_results,
)


@pytest.fixture
def results(reproduction):
    """The session's 420-frame reproduction bundle."""
    return reproduction.json_path


class TestValidation:
    def test_all_claims_hold_on_fresh_results(self, results):
        outcomes = validate_file(results)
        assert len(outcomes) == len(CLAIMS)
        failing = [o for o in outcomes if not o.passed]
        assert not failing, "\n".join(str(o) for o in failing)

    def test_broken_results_fail_the_right_claim(self, results):
        payload = json.load(open(results))
        # Sabotage: pretend the game ran at 30 FPS on a perfect network.
        for row in payload["experiments"]["figure1"]:
            if row["rtt"] <= 0.100:
                row["frame_time_mean"] = 1 / 30
        outcomes = validate_results(payload)
        by_claim = {o.claim: o for o in outcomes}
        assert not by_claim["Figure 1: 60 FPS plateau below RTT 100 ms"].passed
        # Unrelated claims still pass.
        assert by_claim[
            "§3.1: a TCP-like transport is less smooth under loss"
        ].passed

    def test_broken_extension_fails_its_claim(self, results):
        payload = json.load(open(results))
        # Sabotage: the console's late joiner received only a delta.
        for row in payload["experiments"]["latejoin"]:
            if row["game"] == "pong":
                row["snapshot_bytes"] = 3918
        failing = [o.claim for o in validate_results(payload) if not o.passed]
        assert failing == ["Ext-B: the console transfers its whole 64 KiB machine"]

    def test_missing_experiment_reported_not_crashed(self, results):
        payload = json.load(open(results))
        del payload["experiments"]["ablation_transport"]
        outcomes = validate_results(payload)
        tcp = next(o for o in outcomes if "TCP-like" in o.claim)
        assert not tcp.passed
        assert "not checkable" in tcp.detail

    def test_claim_result_formatting(self):
        ok = ClaimResult("claim A", True, "because")
        bad = ClaimResult("claim B", False, "nope")
        assert str(ok).startswith("[PASS]")
        assert str(bad).startswith("[FAIL]")

    def test_cli_validate_exit_codes(self, results, tmp_path, capsys):
        from repro.cli import main

        assert main(["validate", results]) == 0
        out = capsys.readouterr().out
        assert f"{len(CLAIMS)}/{len(CLAIMS)} claims hold" in out

        payload = json.load(open(results))
        for row in payload["experiments"]["figure2"]:
            row["synchrony"] = 0.5  # desynchronized everywhere
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        assert main(["validate", str(broken)]) == 1
