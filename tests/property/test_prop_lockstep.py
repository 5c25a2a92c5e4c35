"""Property tests: the lockstep protocol converges under adversarial
message scheduling — arbitrary interleavings of drops, duplicates and
delays, driven directly at the sans-IO layer."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment
from repro.core.lockstep import LockstepSync
from tests.wire import sync_of

lockstep_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_sites(num_sites=2, buf_frame=3):
    config = SyncConfig(buf_frame=buf_frame)
    assignment = InputAssignment.standard(num_sites)
    return [
        LockstepSync(config, site, assignment, session_id=1)
        for site in range(num_sites)
    ]


@lockstep_settings
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    frames=st.integers(min_value=5, max_value=60),
    drop_p=st.floats(min_value=0.0, max_value=0.6),
    dup_p=st.floats(min_value=0.0, max_value=0.4),
)
def test_two_sites_converge_under_chaos(seed, frames, drop_p, dup_p):
    """Drive both protocol instances with a chaotic scheduler: each round,
    every site buffers an input, flushes (messages may be dropped or
    duplicated), consumes deliveries in shuffled order, and delivers any
    ready frames.  Retransmission must defeat every chaos pattern."""
    rng = random.Random(seed)
    sites = make_sites()
    delivered = [[] for __ in sites]
    in_flight = []

    def flush(site):
        for peer, message in site.build_all(force=True).items():
            if rng.random() < drop_p:
                continue
            copies = 2 if rng.random() < dup_p else 1
            for __ in range(copies):
                in_flight.append((peer, message))

    frame = 0
    rounds = 0
    max_rounds = frames * 60  # generous; chaos may need many retries
    while min(len(d) for d in delivered) < frames and rounds < max_rounds:
        rounds += 1
        for site in sites:
            if frame < frames * 2:
                site.buffer_local_input(
                    frame, (frame * 37 + site.site_no) & 0xFFFF
                )
        frame += 1
        for site in sites:
            flush(site)
        rng.shuffle(in_flight)
        keep = []
        for destination, message in in_flight:
            # Deliver ~70% now, delay the rest to a later round.
            if rng.random() < 0.7:
                sites[destination].on_sync(message, arrived_at=rounds * 0.01)
            else:
                keep.append((destination, message))
        in_flight[:] = keep
        for index, site in enumerate(sites):
            while site.can_deliver() and len(delivered[index]) < frames:
                delivered[index].append(site.deliver())

    assert min(len(d) for d in delivered) >= frames, "protocol livelocked"
    assert delivered[0][:frames] == delivered[1][:frames]


@lockstep_settings
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_sites=st.integers(min_value=2, max_value=4),
)
def test_n_sites_same_delivery_sequence(seed, num_sites):
    rng = random.Random(seed)
    sites = make_sites(num_sites=num_sites)
    frames = 25
    delivered = [[] for __ in sites]
    for frame in range(frames * 3):
        for site in sites:
            site.buffer_local_input(frame, (frame + site.site_no * 7) & 0xFF)
        messages = []
        for site in sites:
            for peer, message in site.build_all(force=True).items():
                messages.append((peer, message))
        rng.shuffle(messages)
        for destination, message in messages:
            if rng.random() < 0.85:  # some loss
                sites[destination].on_sync(message, 0.0)
        for index, site in enumerate(sites):
            while site.can_deliver() and len(delivered[index]) < frames:
                delivered[index].append(site.deliver())
        if min(len(d) for d in delivered) >= frames:
            break
    sequences = {tuple(d[:frames]) for d in delivered}
    assert len(sequences) == 1


@lockstep_settings
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_acks_eventually_allow_pruning(seed):
    rng = random.Random(seed)
    sites = make_sites()
    for frame in range(120):
        for site in sites:
            site.buffer_local_input(frame, frame & 0xFF)
        for site in sites:
            for peer, message in site.build_all(force=True).items():
                if rng.random() < 0.9:
                    sites[peer].on_sync(message, 0.0)
        for site in sites:
            while site.can_deliver() and site.ibuf_pointer <= frame:
                site.deliver()
    # One final clean exchange ensures acks land.
    for __ in range(3):
        for site in sites:
            for peer, message in site.build_all(force=True).items():
                sites[peer].on_sync(message, 0.0)
    assert all(site.ibuf.floor > 0 for site in sites)
    assert all(len(site.ibuf) < 60 for site in sites)


#: Operations on site 0 of a three-site session (see the test below).
encode_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("buffer"), st.integers(0, 0xFF)),
        st.tuples(st.just("lag"), st.integers(0, 8)),
        st.tuples(
            st.just("peer"), st.integers(1, 2), st.integers(0, 6), st.integers(0, 6)
        ),
        st.tuples(
            st.just("burst"), st.sampled_from([3, 40, 4200]), st.integers(0, 3)
        ),
        st.tuples(st.just("seed"), st.integers(0, 8)),
        st.tuples(st.just("resume"), st.integers(0, 8)),
        st.tuples(
            st.just("admit"),
            st.integers(1, 2),
            st.integers(0, 8),
            st.one_of(st.none(), st.integers(0, 10)),
        ),
        st.tuples(st.just("absent"), st.integers(1, 2)),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=encode_cache_ops)
def test_every_sync_window_is_a_slice_of_the_encode_cache(ops):
    """Whatever mix of local buffering, lag changes, peer traffic, pruning,
    snapshot seats and admissions a site goes through, the encode cache
    starts at or below every peer's first unacked own frame and covers
    its window: each input-carrying SYNC is a slice of the cache holding
    exactly the buffered inputs (a window outside it raises)."""
    a, __, __ = make_sites(num_sites=3)
    frame = 0

    def peer_sends(peer, count, ack):
        message = sync_of(
            peer,
            1,
            min(a.last_rcv_frame[0], ack),
            a.last_rcv_frame[peer] + 1,
            [0] * count,
            a.assignment.mask(peer),
        )
        a.on_sync(message, arrived_at=0.0)

    def deliver_ready():
        while a.can_deliver():
            a.deliver()

    def check_windows():
        for peer in (1, 2):
            message = a.build_sync_for(peer, force=True)
            if not message.input_count:
                continue
            first, last = message.first_frame, message.last_frame
            base, width = a._enc_base, a._cell_width
            assert base <= first
            assert message._packed == bytes(
                a._enc_cells[(first - base) * width : (last - base + 1) * width]
            )
            assert message.inputs == a.ibuf.range_for(0, first, last)

    for op in ops:
        kind = op[0]
        if kind == "buffer":
            a.buffer_local_input(frame, op[1])
            frame += 1
        elif kind == "lag":
            a.set_local_lag(op[1])
        elif kind == "peer":
            peer_sends(op[1], op[2], a.last_ack_frame[op[1]] + op[3])
            deliver_ready()
        elif kind == "burst":
            # Long enough to trim the cache, with acks ``op[2]`` behind.
            for __ in range(op[1]):
                a.buffer_local_input(frame, frame & 0xFF)
                frame += 1
                for peer in (1, 2):
                    peer_sends(peer, 1, a.last_rcv_frame[0] - op[2])
                deliver_ready()
                check_windows()
        elif kind in ("seed", "resume"):
            snapshot = a.ibuf_pointer - 1 + op[1]
            if kind == "seed":
                a.seed_from_snapshot(snapshot)
                frame = snapshot + 1
            else:
                a.resume_from_snapshot(snapshot)
                frame = max(0, snapshot + 1 - a.local_lag_frames)
        elif kind == "admit":
            hint = op[3]
            if hint is not None:
                hint = min(a.last_rcv_frame[0], a.last_ack_frame[op[1]] + hint)
            a.admit_site(op[1], a.ibuf_pointer + op[2], ack_hint=hint)
        else:
            a.mark_absent(op[1])
        check_windows()
