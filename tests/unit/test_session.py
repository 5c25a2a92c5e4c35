"""Unit tests for repro.core.session — the start protocol."""

import pytest

from repro.core.config import SyncConfig
from repro.core.messages import Hello, Start, StartAck, Welcome
from repro.core.session import (
    SessionControl,
    SessionError,
    SessionPhase,
    config_digest,
    game_digest,
)

ADDRESSES = {0: "site0", 1: "site1"}


def make_pair(config=None):
    config = config or SyncConfig()
    master = SessionControl(config, 0, 2, "pong", 1, ADDRESSES)
    joiner = SessionControl(config, 1, 2, "pong", 1, ADDRESSES)
    return master, joiner


def exchange(sender_ctrl, receiver_ctrl, now):
    """Deliver everything sender polls out; return receiver's replies."""
    replies = []
    for message, __dest in sender_ctrl.poll(now):
        replies.extend(receiver_ctrl.on_message(message, now))
    return replies


class TestHandshake:
    def test_full_handshake(self):
        master, joiner = make_pair()
        now = 0.0
        # Joiner HELLOs; master WELCOMEs.
        for message, dest in joiner.poll(now):
            assert isinstance(message, Hello)
            replies = master.on_message(message, now)
            for reply, __ in replies:
                assert isinstance(reply, Welcome)
                joiner.on_message(reply, now)
        assert joiner.phase is SessionPhase.WAITING
        # Master polls: all joined -> START + begins immediately.
        now = 0.1
        starts = master.poll(now)
        assert master.started
        assert master.started_at == now
        for message, __ in starts:
            assert isinstance(message, Start)
            replies = joiner.on_message(message, now + 0.02)
            assert joiner.started
            assert joiner.started_at == now + 0.02
            for reply, __d in replies:
                assert isinstance(reply, StartAck)
                master.on_message(reply, now + 0.04)
        assert master.all_acked

    def test_start_skew_bounded_by_one_way(self):
        master, joiner = make_pair()
        now = 0.0
        exchange(joiner, master, now)
        for message, __ in master.poll(0.1):  # WELCOME pending? no: poll sends START
            joiner.on_message(message, 0.1 + 0.05)
        # the WELCOME went through on_message's reply path in exchange()

    def test_master_retransmits_start_until_acked(self):
        master, joiner = make_pair()
        hello = Hello(1, 1, game_digest("pong"), config_digest(SyncConfig()))
        master.on_message(hello, 0.0)
        first = master.poll(0.1)
        assert any(isinstance(m, Start) for m, __ in first)
        # No ack arrives; the next poll after RETRY_INTERVAL re-sends START.
        again = master.poll(0.1 + SessionControl.RETRY_INTERVAL)
        assert any(isinstance(m, Start) for m, __ in again)
        # After the ack, no more STARTs.
        master.on_message(StartAck(1, 1), 0.3)
        assert master.poll(1.0) == []

    def test_joiner_retransmits_hello(self):
        __, joiner = make_pair()
        first = joiner.poll(0.0)
        assert any(isinstance(m, Hello) for m, __ in first)
        assert joiner.poll(0.01) == []  # throttled
        later = joiner.poll(SessionControl.RETRY_INTERVAL + 0.01)
        assert any(isinstance(m, Hello) for m, __ in later)

    def test_duplicate_welcome_after_start_does_not_regress(self):
        """Regression: a late duplicate WELCOME froze the session."""
        master, joiner = make_pair()
        welcome = Welcome(0, 1, assigned_site=1, num_sites=2)
        joiner.on_message(welcome, 0.0)
        joiner.on_message(Start(0, 1), 0.1)
        assert joiner.started
        joiner.on_message(welcome, 0.2)  # duplicate arrives late
        assert joiner.started  # must NOT regress to WAITING

    def test_duplicate_start_acks_again(self):
        __, joiner = make_pair()
        joiner.on_message(Welcome(0, 1, 1, 2), 0.0)
        first = joiner.on_message(Start(0, 1), 0.1)
        second = joiner.on_message(Start(0, 1), 0.2)
        assert any(isinstance(m, StartAck) for m, __ in first)
        assert any(isinstance(m, StartAck) for m, __ in second)
        assert joiner.started_at == 0.1  # first START wins


class TestValidation:
    def test_wrong_game_rejected(self):
        master, __ = make_pair()
        bad = Hello(1, 1, game_digest("zelda"), config_digest(SyncConfig()))
        with pytest.raises(SessionError):
            master.on_message(bad, 0.0)

    def test_wrong_config_rejected(self):
        master, __ = make_pair()
        bad = Hello(1, 1, game_digest("pong"), config_digest(SyncConfig(cfps=50)))
        with pytest.raises(SessionError):
            master.on_message(bad, 0.0)

    def test_hello_from_an_unknown_site_rejected(self):
        master, __ = make_pair()
        stray = Hello(5, 1, game_digest("pong"), config_digest(SyncConfig()))
        with pytest.raises(SessionError, match="site 5"):
            master.on_message(stray, 0.0)
        assert 5 not in master._joined

    def test_start_ack_from_an_unknown_site_rejected(self):
        master, joiner = make_pair()
        exchange(joiner, master, 0.0)
        master.poll(0.1)
        with pytest.raises(SessionError, match="site 5"):
            master.on_message(StartAck(5, 1), 0.1)
        assert 5 not in master._start_acked
        assert not master.all_acked

    def test_wrong_session_id_ignored(self):
        master, __ = make_pair()
        stray = Hello(1, 999, game_digest("pong"), config_digest(SyncConfig()))
        assert master.on_message(stray, 0.0) == []

    def test_misassigned_welcome_raises(self):
        __, joiner = make_pair()
        with pytest.raises(SessionError):
            joiner.on_message(Welcome(0, 1, assigned_site=5, num_sites=2), 0.0)

    def test_digests_stable(self):
        assert config_digest(SyncConfig()) == config_digest(SyncConfig())
        assert config_digest(SyncConfig()) != config_digest(SyncConfig(buf_frame=3))
        assert game_digest("pong") != game_digest("pong2")


class TestExpectedSites:
    def test_handshake_subset(self):
        config = SyncConfig()
        addresses = {0: "s0", 1: "s1", 2: "s2"}
        master = SessionControl(
            config, 0, 3, "g", 1, addresses, expected_sites=[0, 1]
        )
        hello = Hello(1, 1, game_digest("g"), config_digest(config))
        master.on_message(hello, 0.0)
        master.poll(0.1)
        assert master.started  # site 2 was not required

    def test_known_site_outside_the_handshake_is_welcomed(self):
        """A late joiner's HELLO is answered, not refused: only a site
        with no address is unknown."""
        config = SyncConfig()
        addresses = {0: "s0", 1: "s1", 2: "s2"}
        master = SessionControl(
            config, 0, 3, "g", 1, addresses, expected_sites=[0, 1]
        )
        hello = Hello(2, 1, game_digest("g"), config_digest(config))
        [(welcome, destination)] = master.on_message(hello, 0.0)
        assert (welcome.assigned_site, destination) == (2, "s2")
