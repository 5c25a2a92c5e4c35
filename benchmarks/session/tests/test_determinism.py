"""Virtual-time metrics repeat exactly, and the seed reaches the inputs
and the network."""

import pytest

from measure import EndToEnd, run_session
from workloads import WORKLOADS, session_seed

pytestmark = pytest.mark.bench

#: workload -> (frames, whether its link loses packets).
SIM = {
    "sim-pong-lan": (400, False),
    "sim-counter-lossy": (400, True),
    "sim-pong-adaptive-wan": (900, True),
}


def _observe(name, seed, frames):
    result = run_session(WORKLOADS[name], session_seed(seed, 0), frames, sample=True)
    assert result.failed == 0 and result.error is None
    assert result.frame_costs
    pool = EndToEnd()
    pool.add_session(result)
    pool.pool_frames(result)
    virtual = pool.metrics()
    del virtual["session_frame_us"]  # host time: the one that may differ
    counts = []
    for site in result.sites:
        row = site.runtime.lockstep.stats.as_dict()
        rollback = getattr(site.runtime, "rollback_stats", None)
        if rollback is not None:
            row.update(rollback.as_dict())
        counts.append(row)
    inputs = [site.runtime.trace.inputs for site in result.sites]
    fates = result.prepared.network.ground_truth()
    return virtual, counts, inputs, fates


@pytest.mark.parametrize("name", SIM)
def test_one_seed_repeats_exactly_and_another_differs(name):
    frames, lossy = SIM[name]
    first = _observe(name, 5, frames)
    again = _observe(name, 5, frames)
    other = _observe(name, 6, frames)

    assert first == again  # bit-equal floats, counts, inputs and packet fates

    virtual, __, inputs, fates = first
    other_virtual, __, other_inputs, other_fates = other
    assert inputs != other_inputs  # the seed reaches the input sources
    assert virtual != other_virtual
    if lossy:
        assert fates["dropped"] > 0
        assert fates != other_fates  # ... and the network's loss process


def test_sampling_the_cost_does_not_change_the_session():
    """The sampler's ticks are events on the session's own loop; they must
    leave every begin time, input and checksum where it was."""
    workload = WORKLOADS["sim-counter-lossy"]
    sampled = run_session(workload, 9, 300, sample=True)
    plain = run_session(workload, 9, 300)
    for a, b in zip(sampled.sites, plain.sites):
        assert a.runtime.trace.to_rows() == b.runtime.trace.to_rows()
        assert a.transport.as_dict() == b.transport.as_dict()


def test_session_seeds_never_collide():
    seeds = {session_seed(seed, rep) + pad for seed in range(1, 40)
             for rep in range(4) for pad in (0, 1)}
    assert len(seeds) == 39 * 4 * 2
