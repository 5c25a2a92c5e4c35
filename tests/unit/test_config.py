"""Unit tests for repro.core.config (SyncConfig)."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.config import SyncConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = SyncConfig.paper_defaults()
        assert config.cfps == 60.0
        assert config.buf_frame == 6
        assert config.send_interval == 0.020
        assert config.slice_delay == 0.005
        assert config.master_slave_pacing

    def test_time_per_frame(self):
        assert SyncConfig(cfps=60).time_per_frame == pytest.approx(1 / 60)
        assert SyncConfig(cfps=50).time_per_frame == pytest.approx(0.020)

    def test_local_lag_seconds(self):
        assert SyncConfig().local_lag == pytest.approx(0.1)
        assert SyncConfig(buf_frame=0).local_lag == 0.0


class TestValidation:
    def test_bad_cfps(self):
        with pytest.raises(ValueError):
            SyncConfig(cfps=0)

    def test_negative_buf_frame(self):
        with pytest.raises(ValueError):
            SyncConfig(buf_frame=-1)

    def test_bad_send_interval(self):
        with pytest.raises(ValueError):
            SyncConfig(send_interval=0)

    def test_negative_slice_delay(self):
        with pytest.raises(ValueError):
            SyncConfig(slice_delay=-0.1)


class TestFieldCount:
    """Every field is a configuration the suite has to cover: a knob that
    nothing sets to a second value is a constant next to its reader."""

    def test_field_count(self):
        assert len(dataclasses.fields(SyncConfig)) == 14

    @pytest.mark.parametrize(
        "removed",
        [
            "adaptive_margin",
            "adaptive_max_buf",
            "policy_dwell_s",
            "policy_switch_timeout_s",
            "policy_drain_lag",
            "rtt_alpha",
            "ping_interval",
            "slo_budget_s",
            "sync_adjust_clamp_frames",
            "max_inputs_per_message",
            "initial_rtt",
            "adaptive_min_buf",
            "adaptive_window_s",
            "adaptive_deadband_frames",
            "policy_rollback_above_s",
            "policy_lockstep_below_s",
            "suspend_backoff_initial_s",
            "resync_max_attempts",
            "resync_window_s",
            "liveness_timeout_s",
            "bandwidth_budget_bps",
        ],
    )
    def test_removed_knobs_stay_removed(self, removed):
        with pytest.raises(TypeError):
            SyncConfig(**{removed: 1})

    def test_every_field_is_turned(self):
        """Each field is set to a second value by some call outside the
        tests (a keyword whose value is not the default literal), or is a
        deployment setting on the allowlist.  The next single-valued knob
        fails here instead of waiting for a review to find it."""
        defaults = {f.name: f.default for f in dataclasses.fields(SyncConfig)}
        turned = set()
        for path in _program_files():
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                for keyword in node.keywords:
                    value = keyword.value
                    if keyword.arg in defaults and not (
                        isinstance(value, ast.Constant)
                        and value.value == defaults[keyword.arg]
                    ):
                        turned.add(keyword.arg)
        single_valued = set(defaults) - turned - DEPLOYMENT_SETTINGS
        assert not single_valued, (
            f"SyncConfig fields nothing sets to a second value: "
            f"{sorted(single_valued)}; make each a constant next to its reader"
        )

    def test_slo_budget_is_derived(self):
        config = SyncConfig(cfps=50, buf_frame=4)
        assert config.slo_budget == pytest.approx(6 * 0.020)


#: Fields kept although no program file sets them: they are what an operator
#: tunes for a deployment, not protocol parameters.
DEPLOYMENT_SETTINGS = {
    # The real-UDP test needs a 1 s wall-clock handshake deadline.
    "handshake_timeout_s",
}

ROOT = Path(__file__).resolve().parents[2]


def _program_files():
    """Python files outside the tests whose calls may configure a session."""
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


class TestOverrides:
    def test_frozen(self):
        with pytest.raises(AttributeError):
            SyncConfig().cfps = 30  # type: ignore[misc]
