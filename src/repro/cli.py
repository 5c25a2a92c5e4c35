"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``games`` — list the built-in deterministic games,
* ``play`` — run a two-site lockstep session on the simulator and show the
  final screen and timing metrics,
* ``figure1`` / ``figure2`` — regenerate the paper's evaluation figures,
* ``loss`` — the packet-loss sweep (journal extension),
* ``disasm`` — disassemble a console ROM,
* ``record`` / ``replay`` — input movies (record a session, verify a replay).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, two_player_plan
from repro.core.replay import InputMovie, record_session
from repro.emulator.console import Console
from repro.emulator.machine import available_games, create_game
from repro.harness.experiment import PAPER_FRAMES, PAPER_RTT_SWEEP
from repro.harness.report import format_series1, format_series2, format_series3
from repro.harness.series1 import run_series1
from repro.harness.series2 import run_series2
from repro.harness.series3 import run_series3
from repro.metrics.stats import mean, mean_abs_deviation
from repro.net.netem import NetemConfig, WAN_PROFILES
from repro.obs.postmortem import verify_with_postmortem


def _run_session(game: str, frames: int, rtt: float, seed: int, loss: float = 0.0):
    plan = two_player_plan(
        SyncConfig.paper_defaults(),
        machine_factory=lambda: create_game(game),
        sources=[
            PadSource(RandomSource(seed), player=0),
            PadSource(RandomSource(seed + 1), player=1),
        ],
        game_id=game,
        max_frames=frames,
        seed=seed,
    )
    session = build_session(plan, NetemConfig(delay=rtt / 2, loss=loss))
    session.run(horizon=3600.0)
    return session


def cmd_games(args: argparse.Namespace) -> int:
    for name in available_games():
        machine = create_game(name)
        kind = "RC-16 ROM" if isinstance(machine, Console) else "python"
        print(f"{name:10s} {kind:10s} {machine.num_players} players")
    return 0


def cmd_play(args: argparse.Namespace) -> int:
    session = _run_session(args.game, args.frames, args.rtt / 1000, args.seed)
    # On divergence this writes a postmortem bundle (both sites' full frame
    # rows, trace records and registries) next to the raised error.
    verified = verify_with_postmortem(
        session.vms, artifact_path=args.postmortem, last_n=None
    )
    machine = session.vms[0].runtime.machine
    print(machine.render_text())
    print()
    for vm in session.vms:
        times = vm.runtime.trace.frame_times()
        print(
            f"site {vm.runtime.site_no}: {vm.runtime.frame} frames, "
            f"mean frame time {mean(times) * 1000:.2f} ms"
        )
    print(f"replicas identical for all {verified} frames")
    return 0


def cmd_aio(args: argparse.Namespace) -> int:
    """Host N concurrent two-site sessions on one asyncio event loop and
    verify each against its discrete-event twin — and the pace it held
    against ``--cfps``: the master's mean frame time (frames after the
    first 30) may exceed ``time_per_frame`` by at most 1%.  Each site's
    frame-time deviation and the slave's mean begin offset from the
    master are printed beside it."""
    from repro.core.aio import AioSessionSpec, run_sessions, simulator_checksums

    config = SyncConfig(cfps=args.cfps)
    specs = [
        AioSessionSpec(
            game=args.game,
            frames=args.frames,
            seed=args.seed + 10 * index,
            config=config,
            session_id=index + 1,
            linger=0.5,
        )
        for index in range(args.sessions)
    ]
    started = time.monotonic()
    groups = run_sessions(specs)
    wall = time.monotonic() - started
    print(
        f"hosted {len(groups)} two-site sessions ({2 * len(groups)} sites) "
        f"on one event loop in {wall:.2f}s"
    )
    failures = 0
    for spec, runtimes in zip(specs, groups):
        checks = [rt.trace.checksums for rt in runtimes]
        ok = checks[0] == checks[1] == simulator_checksums(spec)
        print(
            f"  session {spec.session_id}: seed={spec.seed} "
            f"frames={len(checks[0])} "
            f"{'matches simulator' if ok else 'MISMATCH'}"
        )
        for rt in runtimes:
            settled = rt.trace.frame_times()[30:]
            if not settled:
                continue  # too short a session to have held a pace
            pace = mean(settled)
            excess = pace / config.time_per_frame - 1.0
            # Site 0 is the reference speed; the slave follows it.
            off_pace = rt.site_no == 0 and excess > 0.01
            ok = ok and not off_pace
            print(
                f"    site {rt.site_no}: mean frame time {pace * 1000:.3f} ms "
                f"({1 / pace:.2f} fps, {excess * 100:+.2f}% of 1/CFPS), "
                f"deviation {mean_abs_deviation(settled) * 1000:.3f} ms"
                f"{'  OFF PACE' if off_pace else ''}"
            )
        # Both sites share this process's clock, so begins compare directly.
        # Reported, never judged: wall-clock jitter on a CI host is noise.
        begins = [rt.trace.begin_times[30:] for rt in runtimes]
        offsets = [slave - master for master, slave in zip(*begins)]
        if offsets:
            print(
                f"    slave - master frame begin: mean "
                f"{mean(offsets) * 1000:+.3f} ms"
            )
        failures += 0 if ok else 1
    return 1 if failures else 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Host concurrent aio sessions and dump their telemetry, or run the
    metric-catalog check CI uses (``--check``)."""
    if args.check:
        from repro.obs.catalog import run_catalog_check

        problems, info = run_catalog_check(
            frames=args.frames, loss=args.loss, seed=args.seed
        )
        truth = info["ground_truth"]
        print(
            f"catalog check: {args.frames} frames at {args.loss:.0%} loss "
            f"(ground truth: {truth['sent']} sent, {truth['dropped']} dropped, "
            f"{truth['duplicated']} duplicated)"
        )
        if problems:
            for problem in problems:
                print(f"  FAIL {problem}", file=sys.stderr)
            return 1
        print("  all catalog metrics present and monotone across scrapes")
        return 0

    from repro.core.aio import AioSessionSpec, SessionHost, run_sessions

    host = SessionHost()
    config = SyncConfig(cfps=args.cfps)
    specs = [
        AioSessionSpec(
            game=args.game,
            frames=args.frames,
            seed=args.seed + 10 * index,
            config=config,
            session_id=index + 1,
            linger=0.5,
        )
        for index in range(args.sessions)
    ]
    run_sessions(specs, session_host=host, raise_errors=False)
    if args.format in ("json", "both"):
        print(json.dumps(host.snapshot(), indent=2, sort_keys=True))
    if args.format in ("prom", "both"):
        print(host.prometheus())
    errors = host.errors()
    for error in errors:
        print(f"session error: {error!r}", file=sys.stderr)
    return 1 if errors else 0


def cmd_figure1(args: argparse.Namespace) -> int:
    rtts = PAPER_RTT_SWEEP if args.full else [r / 1000 for r in range(0, 201, 40)]
    rows = run_series1(rtts=rtts, frames=args.frames, game=args.game)
    print(format_series1(rows))
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    rtts = PAPER_RTT_SWEEP if args.full else [r / 1000 for r in range(0, 201, 40)]
    rows = run_series2(rtts=rtts, frames=args.frames, game=args.game)
    print(format_series2(rows))
    return 0


def cmd_loss(args: argparse.Namespace) -> int:
    rows = run_series3(frames=args.frames, game=args.game)
    print(format_series3(rows))
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.emulator.disassembler import listing

    machine = create_game(args.game)
    if not isinstance(machine, Console):
        print(f"{args.game} is a pure-Python game; nothing to disassemble",
              file=sys.stderr)
        return 1
    program = machine._program
    print(listing(program.code, origin=program.origin))
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    session = _run_session(args.game, args.frames, args.rtt / 1000, args.seed)
    movie = record_session(session)
    movie.save(args.output)
    print(
        f"recorded {len(movie)} frames of {args.game} "
        f"({len(movie.checkpoints)} checkpoints) to {args.output}"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    if args.from_bundle:
        from repro.core.replay import movie_from_trace
        from repro.metrics.recorder import FrameTrace
        from repro.obs.postmortem import DesyncPostmortem

        bundle = DesyncPostmortem.load(args.movie)
        entry = next(
            (e for e in bundle.sites if e.get("site") == args.site), None
        )
        if entry is None:
            print(f"bundle has no site {args.site}", file=sys.stderr)
            return 1
        trace = FrameTrace.from_rows(args.site, entry["frame_rows"])
        movie = movie_from_trace(
            trace,
            game=entry["game"],
            metadata={"from_bundle": args.movie, "site": str(args.site)},
        )
        machine = movie.replay()
        print(machine.render_text())
        print(
            f"replayed {len(movie)} frames of {movie.game} from site "
            f"{args.site}'s postmortem rows; divergence was at frame "
            f"{bundle.divergence_frame}"
        )
        return 0
    movie = InputMovie.load(args.movie)
    machine = movie.replay()
    print(machine.render_text())
    print(
        f"replayed {len(movie)} frames of {movie.game}; all "
        f"{len(movie.checkpoints)} checkpoints verified"
    )
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.harness.reproduce import write_reproduction

    report_path, json_path = write_reproduction(
        args.out, frames=args.frames, full_sweep=args.full, progress=print
    )
    print(f"wrote {report_path} and {json_path}")
    return 0


def _chaos_catalogue() -> dict:
    """name → (description, run_chaos kwargs) for every chaos scenario."""
    from repro.harness.chaos import (
        abandonment_schedule,
        crash_resume_schedule,
        divergence_schedule,
        flap_schedule,
        partition_heal_schedule,
        resync_config,
        resync_partition_schedule,
        transfer_corruption_schedule,
    )

    return {
        "partition": (
            "2s partition, heal, finish in lockstep",
            dict(schedule=partition_heal_schedule()),
        ),
        "crash": (
            "crash site 1, restart with RESUME handshake",
            dict(schedule=crash_resume_schedule()),
        ),
        "abandon": (
            "crash site 1 forever; survivor must report peer-lost",
            dict(schedule=abandonment_schedule(), expect_completion=False),
        ),
        "divergence": (
            "memory poke on site 1; digests detect, resync auto-recovers",
            dict(schedule=divergence_schedule(), config=resync_config()),
        ),
        "divergence-authority": (
            "memory poke on the authority; it heals from its own snapshot",
            dict(schedule=divergence_schedule(site=0), config=resync_config()),
        ),
        "divergence-rollback": (
            "memory poke under rollback; shadow digests detect and recover",
            dict(
                schedule=divergence_schedule(),
                config=resync_config(buf_frame=0),
                mode="rollback",
            ),
        ),
        "corruption": (
            "bit-flips during a resume state transfer; CRC rejects, "
            "re-request recovers",
            dict(schedule=transfer_corruption_schedule(), game="pong"),
        ),
        "resync-partition": (
            "partition mid-resync; deadline escalates to terminal desync",
            dict(
                schedule=resync_partition_schedule(),
                config=resync_config(),
                expect_completion=False,
                expected_termination="desync",
            ),
        ),
        "flap": (
            "repeated pokes; the quarantine ladder trips to terminal desync",
            dict(
                schedule=flap_schedule(),
                frames=480,
                config=resync_config(),
                expect_completion=False,
                expected_termination="desync",
            ),
        ),
    }


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the scripted fault-injection scenarios and report PASS/FAIL."""
    from repro.harness.chaos import run_chaos

    catalogue = _chaos_catalogue()
    names = list(catalogue) if args.scenario == "all" else [args.scenario]

    failures = 0
    for name in names:
        description, kwargs = catalogue[name]
        kwargs.setdefault("frames", args.frames)
        result = run_chaos(
            seed=args.seed,
            game=kwargs.pop("game", args.game),
            artifact_dir=args.artifacts,
            **kwargs,
        )
        verdict = "PASS" if result.passed else "FAIL"
        faults = sum(
            1
            for e in result.fault_log
            if e["kind"] in ("link_down", "crash", "poke", "corrupted")
        )
        print(
            f"{verdict} {name}: {description} "
            f"({faults} faults injected, {len(result.outcomes)} outcomes)"
        )
        for bundle in result.postmortems:
            print(f"  postmortem bundle: {bundle}")
        if not result.passed:
            failures += 1
            for problem in result.problems:
                print(f"  {problem}", file=sys.stderr)
            print(
                f"  seed {args.seed}; rerun with: repro chaos "
                f"--scenario {name} --seed {args.seed}",
                file=sys.stderr,
            )
    print(f"\n{len(names) - failures}/{len(names)} chaos scenarios hold")
    return 1 if failures else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the adaptive-consistency WAN sweep and report PASS/FAIL.

    Each point runs an adaptive session and a pure-lockstep twin over the
    same seeded inputs and impaired links, then asserts the adaptive arm
    stays inside its frame-time budget (and checksum-verified) at RTTs
    where pure lockstep has collapsed.
    """
    from repro.harness.sweep import (
        SWEEP_RTTS,
        quick_sweep,
        run_sweep_point,
    )

    if args.quick:
        points = quick_sweep(seed=args.seed)
    else:
        profiles = (
            sorted(WAN_PROFILES) if args.profile == "all" else [args.profile]
        )
        points = [
            run_sweep_point(
                profile, rtt, frames=args.frames, seed=args.seed,
                game=args.game,
            )
            for profile in profiles
            for rtt in SWEEP_RTTS
        ]

    failures = 0
    for point in points:
        print(("PASS " if point.passed else "FAIL ") + point.describe())
        for problem in point.problems:
            print(f"  {problem}", file=sys.stderr)
        failures += 0 if point.passed else 1
    print(f"\n{len(points) - failures}/{len(points)} sweep points hold")
    return 1 if failures else 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Run a timeline-attributed two-site session and dump a Chrome trace.

    ``--check`` is the CI smoke: the trace must be parseable JSON, at
    least 95% of presented frames must carry all seven timeline points,
    and the clock-offset estimate must stay within 10% of the one-way
    delay (the simulator's true offset is zero).
    """
    import dataclasses

    from repro.obs.timeline import STAGES, chrome_trace

    rtt = args.rtt / 1000.0
    config = dataclasses.replace(SyncConfig.paper_defaults(), timeline=True)
    plan = two_player_plan(
        config,
        machine_factory=lambda: create_game(args.game),
        sources=[
            PadSource(RandomSource(args.seed), player=0),
            PadSource(RandomSource(args.seed + 1), player=1),
        ],
        game_id=args.game,
        max_frames=args.frames,
        seed=args.seed,
    )
    session = build_session(plan, NetemConfig(delay=rtt / 2, loss=args.loss))
    session.run(horizon=3600.0)

    collectors = {vm.runtime.site_no: vm.runtime.timeline for vm in session.vms}
    trace = chrome_trace(collectors, session_id=plan.session_id)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
        handle.write("\n")

    one_way = rtt / 2
    problems: List[str] = []
    print(
        f"timeline: {args.game}, {args.frames} frames, "
        f"{args.rtt:.0f} ms RTT, {args.loss:.0%} loss -> {args.out}"
    )
    for vm in session.vms:
        runtime = vm.runtime
        collector = runtime.timeline
        complete = collector.complete_fraction()
        offsets = {
            peer: align.offset
            for peer, align in runtime.clocks.items()
            if align.aligned
        }
        print(f"site {runtime.site_no}: {len(collector.ring)} frames attributed, "
              f"{complete:.1%} with all {len(STAGES)} points")
        for name, row in sorted(collector.stage_summary().items()):
            print(
                f"    {name:8s} mean {row['mean'] * 1000:7.2f} ms   "
                f"p95 {row['p95'] * 1000:7.2f} ms   "
                f"max {row['max'] * 1000:7.2f} ms"
            )
        if complete < 0.95:
            problems.append(
                f"site {runtime.site_no}: only {complete:.1%} of frames "
                f"carry all seven points (need 95%)"
            )
        if not offsets:
            problems.append(f"site {runtime.site_no}: no peer clock aligned")
        for peer, offset in sorted(offsets.items()):
            if abs(offset) > 0.10 * one_way:
                problems.append(
                    f"site {runtime.site_no}: offset to site {peer} is "
                    f"{offset * 1000:.2f} ms, over 10% of the "
                    f"{one_way * 1000:.0f} ms one-way delay"
                )

    if args.check:
        with open(args.out, "r", encoding="utf-8") as handle:
            parsed = json.load(handle)
        events = parsed.get("traceEvents")
        if not isinstance(events, list) or not events:
            problems.append(f"{args.out}: no traceEvents array")
        else:
            spans = [e for e in events if e.get("ph") == "X"]
            bad = [
                e for e in spans
                if not (isinstance(e.get("ts"), (int, float))
                        and isinstance(e.get("dur"), (int, float))
                        and e.get("dur") >= 0)
            ]
            if bad:
                problems.append(f"{args.out}: {len(bad)} malformed span events")
            if not spans:
                problems.append(f"{args.out}: no span events in the trace")
        if problems:
            for problem in problems:
                print(f"  FAIL {problem}", file=sys.stderr)
            return 1
        print("  trace parseable, frames attributed, clocks aligned")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validate import validate_file

    outcomes = validate_file(args.results)
    for outcome in outcomes:
        print(outcome)
    failed = sum(1 for o in outcomes if not o.passed)
    print(f"\n{len(outcomes) - failed}/{len(outcomes)} claims hold")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Real-time collaboration transparency for legacy games "
        "(ICDCS 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("games", help="list built-in games").set_defaults(fn=cmd_games)

    def add_common(p, frames_default=600):
        p.add_argument("--game", default="pong", help="game name (see `games`)")
        p.add_argument("--frames", type=int, default=frames_default)
        p.add_argument("--seed", type=int, default=7)

    play = sub.add_parser("play", help="run a two-site session, show the result")
    add_common(play)
    play.add_argument("--rtt", type=float, default=40.0, help="round trip, ms")
    play.add_argument(
        "--postmortem",
        default="desync-postmortem.json",
        help="where to write the desync postmortem bundle if replicas diverge",
    )
    play.set_defaults(fn=cmd_play)

    stats = sub.add_parser(
        "stats",
        help="host aio sessions and dump telemetry as JSON + Prometheus text",
    )
    stats.add_argument("--sessions", type=int, default=8)
    stats.add_argument("--game", default="counter")
    stats.add_argument("--frames", type=int, default=120)
    stats.add_argument("--cfps", type=int, default=120)
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument(
        "--format", choices=("json", "prom", "both"), default="both"
    )
    stats.add_argument(
        "--check",
        action="store_true",
        help="instead: run the metric-catalog check on a lossy simulated "
        "session (CI gate); uses --frames/--seed/--loss",
    )
    stats.add_argument(
        "--loss", type=float, default=0.05, help="loss rate for --check"
    )
    stats.set_defaults(fn=cmd_stats)

    aio = sub.add_parser(
        "aio",
        help="host many concurrent sessions on one asyncio event loop",
    )
    aio.add_argument("--sessions", type=int, default=8)
    aio.add_argument("--game", default="counter")
    aio.add_argument("--frames", type=int, default=120)
    aio.add_argument("--cfps", type=int, default=120)
    aio.add_argument("--seed", type=int, default=1)
    aio.set_defaults(fn=cmd_aio)

    for name, fn, help_text in (
        ("figure1", cmd_figure1, "Figure 1: frame rates and smoothness vs RTT"),
        ("figure2", cmd_figure2, "Figure 2: synchrony between sites vs RTT"),
    ):
        figure = sub.add_parser(name, help=help_text)
        figure.add_argument("--frames", type=int, default=600)
        figure.add_argument("--game", default="counter")
        figure.add_argument(
            "--full", action="store_true", help=f"the paper's full sweep ({PAPER_FRAMES} frames: use --frames)"
        )
        figure.set_defaults(fn=fn)

    loss = sub.add_parser("loss", help="packet-loss sweep (journal extension)")
    loss.add_argument("--frames", type=int, default=600)
    loss.add_argument("--game", default="counter")
    loss.set_defaults(fn=cmd_loss)

    disasm = sub.add_parser("disasm", help="disassemble a console ROM")
    disasm.add_argument("game")
    disasm.set_defaults(fn=cmd_disasm)

    record = sub.add_parser("record", help="record an input movie")
    add_common(record)
    record.add_argument("--rtt", type=float, default=40.0)
    record.add_argument("--output", "-o", default="movie.json")
    record.set_defaults(fn=cmd_record)

    replay = sub.add_parser("replay", help="verify and show an input movie")
    replay.add_argument("movie", help="movie file (or bundle with --from-bundle)")
    replay.add_argument(
        "--from-bundle",
        action="store_true",
        help="treat the argument as a desync postmortem bundle and replay "
        "one site's captured frame rows",
    )
    replay.add_argument(
        "--site", type=int, default=0, help="which site's rows to replay"
    )
    replay.set_defaults(fn=cmd_replay)

    reproduce = sub.add_parser(
        "reproduce", help="run every experiment, write report.md + results.json"
    )
    reproduce.add_argument("--frames", type=int, default=600)
    reproduce.add_argument("--full", action="store_true", help="full RTT sweep")
    reproduce.add_argument("--out", default="results")
    reproduce.set_defaults(fn=cmd_reproduce)

    chaos = sub.add_parser(
        "chaos",
        help="scripted fault injection: partitions, crashes, resume, "
        "abandonment, memory corruption, desync recovery — asserts "
        "recovery (or the intended terminal outcome) and no silent desync",
    )
    chaos.add_argument(
        "--scenario",
        choices=(
            "all",
            "partition",
            "crash",
            "abandon",
            "divergence",
            "divergence-authority",
            "divergence-rollback",
            "corruption",
            "resync-partition",
            "flap",
        ),
        default="all",
    )
    chaos.add_argument("--game", default="counter")
    chaos.add_argument("--frames", type=int, default=240)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--artifacts",
        default=None,
        help="directory for desync postmortem bundles (written on "
        "terminal-desync endings)",
    )
    chaos.set_defaults(fn=cmd_chaos)

    sweep = sub.add_parser(
        "sweep",
        help="adaptive-consistency WAN sweep: 0-400 ms RTT under named "
        "profiles, adaptive vs pure lockstep, asserts playable frame "
        "times and checksum-verified switches",
    )
    sweep.add_argument(
        "--profile",
        choices=("all",) + tuple(sorted(WAN_PROFILES)),
        default="all",
        help="named WAN profile (default: the full grid)",
    )
    sweep.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: wan-120 at one good and one collapsed RTT point",
    )
    sweep.add_argument("--game", default="counter")
    sweep.add_argument("--frames", type=int, default=360)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.set_defaults(fn=cmd_sweep)

    timeline = sub.add_parser(
        "timeline",
        help="run a timeline-attributed session, write a Perfetto-loadable "
        "Chrome trace and print the per-stage latency breakdown",
    )
    timeline.add_argument("--game", default="pong")
    timeline.add_argument("--frames", type=int, default=600)
    timeline.add_argument("--seed", type=int, default=7)
    timeline.add_argument("--rtt", type=float, default=120.0, help="round trip, ms")
    timeline.add_argument("--loss", type=float, default=0.02)
    timeline.add_argument("--out", "-o", default="frame-timeline.json")
    timeline.add_argument(
        "--check",
        action="store_true",
        help="CI smoke: fail unless the trace parses, >=95%% of frames "
        "carry all seven points and clock offset stays under 10%% of "
        "the one-way delay",
    )
    timeline.set_defaults(fn=cmd_timeline)

    validate = sub.add_parser(
        "validate", help="check a results.json against the paper's claims"
    )
    validate.add_argument("results", help="path to results.json")
    validate.set_defaults(fn=cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro disasm pong | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
