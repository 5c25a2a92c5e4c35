"""Unit tests for repro.core.config (SyncConfig)."""

import dataclasses

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


class TestForLocalLag:
    def test_exact_100ms_at_60fps(self):
        config = SyncConfig.for_local_lag(0.100, cfps=60)
        assert config.buf_frame == 6

    def test_rounds_up(self):
        config = SyncConfig.for_local_lag(0.095, cfps=60)
        assert config.buf_frame == 6
        config = SyncConfig.for_local_lag(0.101, cfps=60)
        assert config.buf_frame == 7

    def test_other_frame_rate(self):
        assert SyncConfig.for_local_lag(0.100, cfps=50).buf_frame == 5


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

    def test_bad_max_inputs(self):
        with pytest.raises(ValueError):
            SyncConfig(max_inputs_per_message=0)


class TestFieldCount:
    """Every field is a configuration the suite has to cover: a knob that
    nothing sets to a second value is a constant next to its reader."""

    def test_field_count(self):
        assert len(dataclasses.fields(SyncConfig)) == 27

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
        ],
    )
    def test_removed_knobs_stay_removed(self, removed):
        with pytest.raises(TypeError):
            SyncConfig(**{removed: 1})

    def test_slo_budget_is_derived(self):
        config = SyncConfig(cfps=50, buf_frame=4)
        assert config.slo_budget == pytest.approx(6 * 0.020)


class TestOverrides:
    def test_with_overrides_returns_new(self):
        base = SyncConfig()
        other = base.with_overrides(buf_frame=3)
        assert other.buf_frame == 3
        assert base.buf_frame == 6

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SyncConfig().cfps = 30  # type: ignore[misc]
