"""Unit tests for the adaptive consistency policy."""

from repro.core.policy import (
    POLICY_DWELL_S,
    POLICY_LOCKSTEP_BELOW_S,
    POLICY_ROLLBACK_ABOVE_S,
    ConsistencyPolicy,
)
from repro.core.rollback import SPECULATION_WINDOW


class FakeRtt:
    """Just enough of RttEstimator for the policy's reads."""

    def __init__(self, aggregate=0.050, peers=None, samples=1):
        self.rtt = aggregate
        self.samples = samples
        self._peers = peers or {}

    def peer_rtt(self, site):
        return self._peers.get(site, self.rtt)


#: The speculation window the policy opens, and the closed one.
WINDOW = SPECULATION_WINDOW
LOCKSTEP = 0


class TestConsistencyPolicy:
    def make_policy(self):
        return ConsistencyPolicy()

    def test_no_opinion_without_samples(self):
        policy = self.make_policy()
        rtt = FakeRtt(aggregate=0.300, samples=0)
        assert policy.propose(1.0, rtt, [1], LOCKSTEP) is None

    def test_degraded_link_demands_rollback(self):
        policy = self.make_policy()
        rtt = FakeRtt(peers={1: 0.200})
        assert policy.propose(1.0, rtt, [1], LOCKSTEP) == WINDOW

    def test_recovered_link_returns_to_lockstep(self):
        policy = self.make_policy()
        rtt = FakeRtt(peers={1: 0.050})
        assert policy.propose(1.0, rtt, [1], WINDOW) == LOCKSTEP

    def test_hysteresis_band_holds_current_mode(self):
        """Between the two thresholds neither mode is urged — a link
        hovering there never flaps."""
        policy = self.make_policy()
        rtt = FakeRtt(peers={1: 0.120})
        assert POLICY_LOCKSTEP_BELOW_S < 0.120 < POLICY_ROLLBACK_ABOVE_S
        assert policy.propose(1.0, rtt, [1], LOCKSTEP) is None
        assert policy.propose(1.0, rtt, [1], WINDOW) is None

    def test_worst_peer_link_decides(self):
        """One bad link is enough: lockstep blocks on the slowest peer."""
        policy = self.make_policy()
        rtt = FakeRtt(peers={1: 0.040, 2: 0.250})
        assert (
            policy.propose(1.0, rtt, [1, 2], LOCKSTEP) == WINDOW
        )

    def test_dwell_blocks_immediate_flapping(self):
        policy = self.make_policy()
        bad = FakeRtt(peers={1: 0.200})
        good = FakeRtt(peers={1: 0.050})
        assert policy.propose(1.0, bad, [1], LOCKSTEP) == WINDOW
        policy.note_transition(1.0)
        # Recovered immediately — but the dwell holds rollback...
        assert policy.propose(1.5, good, [1], WINDOW) is None
        expiry = 1.0 + POLICY_DWELL_S
        assert policy.propose(expiry - 0.1, good, [1], WINDOW) is None
        # ...until it expires.
        assert (
            policy.propose(expiry + 0.1, good, [1], WINDOW)
            == LOCKSTEP
        )
