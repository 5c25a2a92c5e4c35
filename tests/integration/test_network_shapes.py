"""Integration: asymmetric links, rate limits and other network shapes."""

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, two_player_plan
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.metrics.stats import mean
from repro.net.netem import NetemConfig


def make_plan(frames=240, seed=13, config=None):
    return two_player_plan(
        config or SyncConfig.paper_defaults(),
        machine_factory=lambda: create_game("counter"),
        sources=[
            PadSource(RandomSource(seed), player=0),
            PadSource(RandomSource(seed + 1), player=1),
        ],
        game_id="counter",
        max_frames=frames,
        seed=seed,
    )


class TestAsymmetricLinks:
    def test_asymmetric_rtt_converges(self):
        """One-way 10 ms up, 110 ms down (e.g. satellite-ish asymmetry)."""
        plan = make_plan()
        session = build_session(plan, NetemConfig(delay=0.010))
        session.network.connect(
            "site0",
            "site1",
            NetemConfig(delay=0.010),
            reverse_config=NetemConfig(delay=0.110),
        )
        session.run(horizon=600.0)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240
        # Total one-way budget is per-direction; the slow direction (110 ms)
        # stays within the 100+ ms budget only marginally — the game may
        # slow slightly but must stay near CFPS.
        assert mean(session.vms[0].runtime.trace.frame_times()) < 1 / 60 * 1.3

    def test_rtt_estimate_reflects_sum_of_directions(self):
        plan = make_plan(frames=300)
        session = build_session(plan, NetemConfig(delay=0.010))
        session.network.connect(
            "site0",
            "site1",
            NetemConfig(delay=0.020),
            reverse_config=NetemConfig(delay=0.060),
        )
        session.run(horizon=600.0)
        for vm in session.vms:
            assert vm.runtime.rtt.rtt == pytest.approx(0.080, abs=0.02)


class TestRateLimitedLinks:
    def test_constrained_bandwidth_still_converges(self):
        """A 4 kB/s link (sync traffic is ~1 kB/s/site) serializes
        messages but the session survives and converges."""
        plan = make_plan()
        netem = NetemConfig(delay=0.020, rate_bytes_per_s=4_000)
        session = build_session(plan, netem)
        session.run(horizon=600.0)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240

    def test_starved_link_freezes_but_never_diverges(self):
        """400 B/s is below the protocol's floor rate (~930 B/s of sync
        traffic per site on a free link; the v1 codec needed ~2.5 kB/s):
        with no congestion control the send queue grows without bound and
        the game freezes — the §3.1 freeze semantics — but the frames that
        did complete are still bit-identical.  Consistency is
        unconditional; progress is not.  (600 B/s froze the v2 codec; a
        queued window is long and change-coded SYNCs carry it in fewer
        bytes, so v3 pulls through at 600 and freezes at 500.  v4's
        one-ack SYNCs still freeze at 500 and pull through at 550.)"""
        plan = make_plan(frames=180)
        netem = NetemConfig(delay=0.005, rate_bytes_per_s=400)
        session = build_session(plan, netem)
        with pytest.raises(RuntimeError, match="did not finish"):
            session.run(horizon=300.0)
        traces = [vm.runtime.trace for vm in session.vms]
        verified = ConsistencyChecker().verify_traces(traces)
        assert verified == min(t.frames for t in traces)


class TestJitterHeavyLinks:
    def test_extreme_jitter_with_reordering(self):
        netem = NetemConfig(delay=0.040, jitter=0.035, reorder=0.2)
        plan = make_plan()
        session = build_session(plan, netem)
        session.run(horizon=600.0)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240
