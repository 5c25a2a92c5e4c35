"""Per-layer CPU ledger for one traced session, from outside the program.

For the duration of one traced run, :class:`Tracer` replaces every
function named in :data:`LAYERS` with a wrapper that opens a span when
the call enters a layer and closes it when the call leaves.  Spans live
on one stack (the session is single-threaded on every driver), so each
layer is charged its *self* time — a span's duration minus the part its
child spans cover — and the layers sum to the root span by construction.
What no layer claims stays with the root and is reported as
``trace.unattributed_share``: the ledger's own quality figure.

Nothing in ``src/`` knows about this file.  Class methods are replaced
on the class and on every loaded subclass that overrides them; module
functions are replaced in the namespace of the module that *imported*
them (``repro.core.engine.decode_all``), because that is the name the
caller looks up.  Generators and coroutines are charged per resumption,
which is how the driver loops (``DistributedVM._main``, ``AioSite.run``)
get their own residual without a span staying open across a wait.

Install the tracer *before* building the session: a few objects bind a
method at construction time (``TimeServer`` registers ``self._pump``).
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: layer -> targets.  ``"module:Class.method"`` is replaced on the class
#: and its subclasses; ``"module:function"`` in that module's namespace.
#: A handful of underscored names are listed on purpose: they are the only
#: seam at which that layer's work can be seen from outside.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "emulator.step": ("repro.emulator.machine:Machine.step",),
    "emulator.checksum": ("repro.emulator.machine:Machine.checksum",),
    "emulator.state": (
        "repro.emulator.machine:Machine.save_state",
        "repro.emulator.machine:Machine.load_state",
        "repro.emulator.machine:Machine.save_delta",
        "repro.emulator.machine:Machine.apply_delta",
        "repro.emulator.machine:Machine.state_mark",
        "repro.emulator.machine:Machine.dirty_pages_since",
    ),
    "core.rollback": (
        "repro.core.rollback:InputPredictor.observe",
        "repro.core.rollback:InputPredictor.predict",
    ),
    "core.engine": (
        "repro.core.engine:SiteEngine.start",
        "repro.core.engine:SiteEngine.handle",
        "repro.core.engine:SiteEngine.poll",
        "repro.core.engine:SiteEngine.next_deadline",
    ),
    "core.lockstep": (
        "repro.core.lockstep:LockstepSync.buffer_local_input",
        "repro.core.lockstep:LockstepSync.build_sync_for",
        "repro.core.lockstep:LockstepSync.build_all",
        "repro.core.lockstep:LockstepSync.on_sync",
        "repro.core.lockstep:LockstepSync.can_deliver",
        "repro.core.lockstep:LockstepSync.deliver",
    ),
    "core.messages": (
        "repro.core.engine:encode_packet",
        "repro.core.engine:pack_batch",
        "repro.core.engine:decode_all",
        "repro.core.messages:Message.encode",
        # The outbox encodes bodies directly, once per message.
        "repro.core.messages:Message._encode_body",
    ),
    "core.pacing": (
        "repro.core.pacing:FramePacer.begin_frame",
        "repro.core.pacing:FramePacer.end_frame",
        "repro.core.pacing:FramePacer.end_frame_deadline",
    ),
    "core.rtt": (
        "repro.core.rtt:RttEstimator.make_ping",
        "repro.core.rtt:RttEstimator.make_pong",
        "repro.core.rtt:RttEstimator.on_pong",
        "repro.core.rtt:RttEstimator.peer_rtt",
        "repro.core.rtt:ClockAlign.on_sample",
        "repro.core.rtt:ClockAlign.to_local",
    ),
    "core.driver": (
        "repro.core.vm:apply_effects",
        "repro.core.vm:feed_datagrams",
        "repro.core.aio:apply_effects",
        "repro.core.aio:feed_datagrams",
    ),
    # The driver loops themselves: a generator and a coroutine, charged
    # per resumption, so what they hold is the loop's own residual.
    "core.vm": ("repro.core.vm:DistributedVM._main",),
    "core.aio": ("repro.core.aio:AioSite.run",),
    "net.udp": (
        "repro.net.udp:AsyncUdpEndpoint.send",
        "repro.net.udp:AsyncUdpEndpoint.datagram_received",
        "repro.net.udp:AsyncUdpEndpoint.receive_all",
        "repro.net.udp:AsyncUdpEndpoint.wait",
    ),
    "net.simnet": (
        "repro.net.simnet:SimNetwork.transmit",
        "repro.net.simnet:SimSocket.send",
        "repro.net.simnet:SimSocket.deliver",
        "repro.net.simnet:SimSocket.receive_all",
    ),
    "net.netem": ("repro.net.netem:LinkScheduler.plan",),
    "sim.eventloop": (
        "repro.sim.eventloop:EventLoop.run",
        # Waking the process blocked on a mailbox is process switching,
        # not network work, although SimSocket.deliver is what calls it.
        "repro.sim.process:Mailbox.deliver",
    ),
    "obs": (
        "repro.obs.site:SiteMetrics.on_begin_frame",
        "repro.obs.site:SiteMetrics.on_commit",
        "repro.obs.site:SiteMetrics.on_frame_latency",
        "repro.obs.site:SiteMetrics.on_rollback",
        "repro.obs.site:SiteMetrics.on_state_served",
        "repro.obs.site:SiteMetrics.on_state_acquired",
        "repro.obs.site:SiteMetrics.refresh",
        "repro.obs.site:SiteMetrics.snapshot",
        "repro.obs.trace:EventTrace.emit",
        "repro.obs.timeline:TimelineCollector.on_local_capture",
        "repro.obs.timeline:TimelineCollector.on_stamp",
        "repro.obs.timeline:TimelineCollector.on_remote_frames",
        "repro.obs.timeline:TimelineCollector.on_gate_open",
        "repro.obs.timeline:TimelineCollector.on_present",
        "repro.obs.slo:SloScorer.observe",
    ),
    "metrics.recorder": (
        "repro.metrics.recorder:FrameTrace.record_begin",
        "repro.metrics.recorder:FrameTrace.record_frame",
    ),
    "metrics.timeserver": (
        "repro.core.engine:encode_report",
        "repro.metrics.timeserver:TimeServer._pump",
    ),
    # Not a module of the repo: the time an asyncio loop sleeps in its
    # selector.  The paced real-time driver is idle for most of a frame,
    # and the ledger must not book that sleep as unattributed CPU.
    "host.idle": ("selectors:DefaultSelector.select",),
}

ROOT = "root"
IDLE = "host.idle"

Patch = Tuple[object, str, object]  # owner, attribute, original


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def resolve(target: str) -> List[Tuple[object, str]]:
    """The ``(owner, attribute)`` pairs one :data:`LAYERS` target names.

    Raises ``AttributeError``/``ImportError`` when the name is gone, so a
    rename in ``src/`` fails loudly instead of silently dropping a layer.
    """
    module_name, __, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        getattr(module, path)
        return [(module, path)]
    class_name, attr = path.split(".")
    cls = getattr(module, class_name)
    getattr(cls, attr)
    definer = next(base for base in cls.__mro__ if attr in vars(base))
    overriders = [sub for sub in _subclasses(cls) if attr in vars(sub)]
    return [(owner, attr) for owner in dict.fromkeys([definer] + overriders)]


class Tracer:
    """Span stack plus per-layer totals; see the module docstring."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: Open spans, innermost last: ``[start_ns, child_ns]``.
        self._stack: List[List[int]] = []
        self._patches: List[Patch] = []
        self.self_ns: Dict[str, int] = {layer: 0 for layer in (ROOT, *LAYERS)}
        #: Calls per target (a layer's calls are the sum over its targets).
        self.calls: Dict[str, int] = {
            target: 0 for targets in LAYERS.values() for target in targets
        }
        self.root_ns = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self) -> List[int]:
        span = [self._clock(), 0]
        self._stack.append(span)
        return span

    def _exit(self, layer: str, span: List[int]) -> int:
        duration = self._clock() - span[0]
        stack = self._stack
        stack.pop()
        self.self_ns[layer] += duration - span[1]
        if stack:
            stack[-1][1] += duration
        return duration

    def run_root(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` as the root span (``Session.run`` / ``run_sessions``)."""
        span = self._enter()
        try:
            return fn()
        finally:
            self.root_ns += self._exit(ROOT, span)

    def _wrap_function(self, layer: str, target: str, fn: Callable) -> Callable:
        # _enter/_exit inlined: ~100 of these spans open per session frame,
        # and their own cost is charged to the layers they measure.
        clock, stack = self._clock, self._stack
        self_ns, calls = self.self_ns, self.calls

        def traced(*args, **kwargs):
            span = [clock(), 0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - span[0]
                stack.pop()
                self_ns[layer] += duration - span[1]
                calls[target] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def _step(self, layer: str, resume: Callable, value):
        """One resumption of a generator or coroutine, as a span."""
        span = self._enter()
        try:
            return resume(value)
        finally:
            self._exit(layer, span)

    def _drive(self, layer: str, target: str, inner):
        """Delegate to ``inner`` like ``yield from``, one span per step."""
        self.calls[target] += 1
        resume, value = inner.send, None
        while True:
            try:
                request = self._step(layer, resume, value)
            except StopIteration as stop:
                return stop.value
            try:
                value = yield request
                resume = inner.send
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # cancellation, timeouts
                value, resume = exc, inner.throw

    def _wrap_generator(self, layer: str, target: str, fn: Callable) -> Callable:
        drive = self._drive

        def traced(*args, **kwargs):
            return (yield from drive(layer, target, fn(*args, **kwargs)))

        return traced

    def _wrap_coroutine(self, layer: str, target: str, fn: Callable) -> Callable:
        drive = self._drive

        class Stepped:
            def __init__(self, coroutine) -> None:
                self._coroutine = coroutine

            def __await__(self):
                return drive(layer, target, self._coroutine.__await__())

        async def traced(*args, **kwargs):
            return await Stepped(fn(*args, **kwargs))

        return traced

    def _wrap(self, layer: str, target: str, original):
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(layer, target, original.__func__))
        if not inspect.isfunction(original):
            raise TypeError(f"cannot trace {target}: not a plain function")
        if inspect.iscoroutinefunction(original):
            return self._wrap_coroutine(layer, target, original)
        if inspect.isgeneratorfunction(original):
            return self._wrap_generator(layer, target, original)
        return self._wrap_function(layer, target, original)

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every target in :data:`LAYERS`; undo with :meth:`restore`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                for owner, attr in resolve(target):
                    original = vars(owner)[attr]
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, target, original))

    def restore(self) -> None:
        """Put back exactly the objects :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[target] for target in LAYERS[layer])

    def unattributed_share(self) -> float:
        """Root self time over the root span — what no layer claimed — with
        the time the loop slept in its selector left out of both."""
        busy = self.root_ns - self.self_ns[IDLE]
        return self.self_ns[ROOT] / busy if busy else 0.0
