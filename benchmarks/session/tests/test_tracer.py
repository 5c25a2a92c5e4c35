"""The tracer wraps what it says, restores what it wrapped, and adds up."""

import asyncio

import pytest

from measure import layer_metrics, run_session
from tracer import LAYERS, ROOT, Tracer, resolve
from workloads import WORKLOADS

pytestmark = pytest.mark.bench

TARGETS = [target for targets in LAYERS.values() for target in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_every_target_resolves(target):
    """A rename in src/ fails here instead of silently dropping a layer."""
    owners = resolve(target)
    assert owners
    for owner, attr in owners:
        assert attr in vars(owner)


def test_originals_are_restored():
    def current():
        return {
            (owner, attr): vars(owner)[attr]
            for target in TARGETS
            for owner, attr in resolve(target)
        }

    before = current()
    with Tracer():
        during = current()
        assert all(during[key] is not before[key] for key in before)
    after = current()
    assert all(after[key] is before[key] for key in before)


def test_restores_when_the_session_raises():
    workload = WORKLOADS["sim-pong-lan"]
    original = vars(resolve("repro.core.engine:SiteEngine.poll")[0][0])["poll"]

    def broken(seed, frames):
        raise RuntimeError("no session")

    with pytest.raises(RuntimeError):
        run_session(type(workload)("broken", "sim", broken), 1, 10, Tracer())
    assert vars(resolve("repro.core.engine:SiteEngine.poll")[0][0])["poll"] is original


def test_generator_wrapper_is_transparent():
    tracer = Tracer()
    seen = []

    def ping_pong():
        try:
            seen.append((yield "first"))
            seen.append((yield "second"))
        except KeyError as exc:
            seen.append(exc)
            yield "caught"
        return "done"

    gen = tracer._wrap_generator("core.vm", "repro.core.vm:DistributedVM._main", ping_pong)()
    assert next(gen) == "first"
    assert gen.send("a") == "second"
    error = KeyError("thrown")
    assert gen.throw(error) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert seen == ["a", error]
    assert tracer.calls["repro.core.vm:DistributedVM._main"] == 1
    assert not tracer._stack  # no span stays open across a yield


def test_coroutine_wrapper_is_transparent():
    tracer = Tracer()

    async def wait_then(value):
        await asyncio.sleep(0)
        try:
            await asyncio.wait_for(asyncio.Event().wait(), 0.001)
        except asyncio.TimeoutError:
            return value

    wrapped = tracer._wrap_coroutine("core.aio", "repro.core.aio:AioSite.run", wait_then)
    assert asyncio.run(wrapped(41)) == 41
    assert tracer.self_ns["core.aio"] > 0
    assert not tracer._stack


def _traced(name, frames):
    tracer = Tracer()
    result = run_session(WORKLOADS[name], 14, frames, tracer)
    assert result.failed == 0 and result.error is None
    return tracer, layer_metrics(result, tracer, result.raw_frame_us)


#: workload -> (frames, layers that must do work, layers that must not).
PREDICTIONS = {
    "sim-pong-lan": (
        240,
        ["emulator.step", "emulator.checksum", "core.engine", "core.lockstep",
         "core.messages", "core.pacing", "core.rtt", "core.driver", "core.vm",
         "net.simnet", "net.netem", "sim.eventloop", "obs", "metrics.recorder"],
        ["emulator.state", "core.rollback", "core.aio", "net.udp",
         "metrics.timeserver", "host.idle"],
    ),
    "sim-counter-lossy": (
        240,
        ["emulator.step", "core.engine", "core.lockstep", "net.simnet"],
        ["emulator.state", "core.rollback", "net.udp", "host.idle"],
    ),
    "sim-pong-adaptive-wan": (
        900,
        ["emulator.step", "emulator.state", "core.rollback", "core.engine",
         "metrics.timeserver", "net.simnet", "sim.eventloop"],
        ["core.aio", "net.udp", "host.idle"],
    ),
    "udp-aio-pong": (
        120,
        ["emulator.step", "core.engine", "core.lockstep", "core.driver",
         "core.aio", "net.udp", "host.idle"],
        ["emulator.state", "core.rollback", "core.vm", "net.simnet",
         "net.netem", "sim.eventloop", "metrics.timeserver"],
    ),
}


@pytest.mark.parametrize("name", PREDICTIONS)
def test_ledger_adds_up_and_follows_the_predictions(name):
    frames, busy, absent = PREDICTIONS[name]
    tracer, metrics = _traced(name, frames)

    # Self times sum to the root span (by construction; 1% is the contract).
    assert sum(tracer.self_ns.values()) == pytest.approx(tracer.root_ns, rel=0.01)
    assert tracer.self_ns[ROOT] >= 0
    assert 0.0 <= metrics["trace.unattributed_share"] < 0.5

    for layer in busy:
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_us"] > 0, layer
    for layer in absent:
        assert metrics[f"{layer}.calls"] == 0, layer
        assert metrics[f"{layer}.self_us"] == 0, layer
    assert metrics["emulator.step.calls"] >= 2.0


def test_the_free_game_costs_nothing():
    """An emulator speed-up must predict no change on sim-counter-lossy."""
    tracer, metrics = _traced("sim-counter-lossy", 600)
    frame_us = tracer.root_ns / 1e3 / 600
    assert metrics["emulator.step.self_us"] < 0.02 * frame_us
    assert metrics["core.lockstep.retransmit_share"] > 0
    assert metrics["net.simnet.dropped_share"] > 0


def test_rollback_counts_on_the_wan_workload():
    __, metrics = _traced("sim-pong-adaptive-wan", 900)
    assert metrics["core.rollback.replayed_per_frame"] > 0
    assert 0.0 < metrics["core.rollback.predict_hit_ratio"] <= 1.0
    assert metrics["core.rollback.delta_bytes_per_rollback"] > 0
