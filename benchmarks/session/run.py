#!/usr/bin/env python3
"""The session benchmark: one presented two-site frame, end to end and by layer.

Usage, from the root of a checkout (no ``PYTHONPATH`` needed)::

    python3 benchmarks/session/run.py --workload sim-pong-lan --seed 7
    python3 benchmarks/session/run.py --workload sim-pong-lan --seed 7 --trace 1
    python3 benchmarks/session/run.py --workload udp-aio-pong --out A.jsonl

``--trace 0`` (the default) runs the workload untraced for ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` runs it once untraced and
once under :mod:`tracer` and prints the per-layer ledger.  Either way the
outputs are checked (every frame presented at both sites with equal
checksums; the real-UDP session also against the simulator's checksums),
every metric is printed by name with its unit, and the last line of
standard output is one JSON object.  Any failed operation makes the
command exit non-zero.  ``--out`` appends the run as one JSON line, the
input of ``compare.py``.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the root of the checkout; ``README.md`` next to this file explains them.
"""

import time

_STARTED = time.perf_counter()  # set-up is timed from here: before any import

from yardstick import calibrated, yardstick  # noqa: E402  (standard library only)

_YARDSTICKS = [yardstick() for __ in range(3)]  # the host's speed right now

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fresh-process set-ups timed per run besides this process's own; the
#: reported ``setup_s`` is the median of all of them.
SETUP_PROBES = 4


def bind_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/`` and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError:
        sys.exit(f"run.py: no program to measure: {src}/repro is missing")
    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"run.py: repro resolves to {repro.__file__}, not this checkout")


def declared(kind: str) -> Dict[str, dict]:
    """The metrics ``BENCHMARK.json`` declares under ``kind``, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in spec[kind]}


def set_up(workload, seed: int) -> Tuple[float, float]:
    """Everything before the first timed frame: (calibrated, raw) seconds
    since this process started.

    Imports, ROM assembly (``create_game``), the session build and one
    warm-up session that fills the block-JIT code cache.  Calibrated with
    the yardstick readings taken when the process started and now.
    """
    from workloads import session_seed

    workload.warm_up(session_seed(seed, 0))
    raw = time.perf_counter() - _STARTED
    readings = _YARDSTICKS + [yardstick() for __ in range(3)]
    return calibrated(raw, readings), raw


def probe_set_up(name: str, seed: int) -> List[Tuple[float, float]]:
    """Time the same set-up in fresh processes, one after another."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe"]
    command += ["--workload", name, "--seed", str(seed)]
    return [
        tuple(
            json.loads(
                subprocess.run(
                    command, check=True, capture_output=True, text=True, timeout=150
                ).stdout
            )
        )
        for __ in range(SETUP_PROBES)
    ]


def frames_for(workload, seconds: float, sessions: int) -> int:
    """Frames per session: fixed in virtual time, the time box in real time."""
    from workloads import FPS, SIM_FRAMES

    if workload.driver == "sim":
        return SIM_FRAMES
    return max(2 * FPS, round(seconds * FPS / sessions))


def measure_end_to_end(workload, seed: int, seconds: float) -> Tuple[dict, dict]:
    """Untraced sessions until the time box closes: (metrics, detail)."""
    from measure import EndToEnd, run_session
    from workloads import SEED_CYCLE, session_seed

    # Frame times and bytes pool one session per seed of the cycle; a
    # paced real-time session spends the whole box on the first seed.
    pooled_sessions = SEED_CYCLE if workload.driver == "sim" else 1
    frames = frames_for(workload, seconds, 1)
    pool = EndToEnd()
    began = time.perf_counter()
    done = 0
    while True:
        result = run_session(
            workload, session_seed(seed, done), frames, sample=True
        )
        pool.add_session(result)
        if done < pooled_sessions:
            pool.pool_frames(result)
        done += 1
        elapsed = time.perf_counter() - began
        # Stop at the whole number of sessions nearest to the time box.
        if done >= pooled_sessions and elapsed + elapsed / done / 2 >= seconds:
            break
    metrics = pool.metrics()
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    costs = [cost for cost, __ in pool.frame_costs]
    detail = {
        "sessions": done,
        "frames_per_session": frames,
        "measured_s": elapsed,
        "session_frame_us": {
            "slices": len(costs),
            "quartiles": statistics.quantiles(costs, n=4),
            "raw_median": statistics.median(raw for __, raw in pool.frame_costs),
        },
        "frame_samples": pool.samples(),
        "attempted": pool.attempted,
        "failed": pool.failed,
        "errors": pool.errors,
    }
    return metrics, detail


def measure_layers(workload, seed: int, seconds: float) -> Tuple[dict, dict]:
    """One untraced and one traced session of one seed: (metrics, detail)."""
    from measure import layer_metrics, run_session
    from tracer import Tracer
    from workloads import session_seed

    frames = frames_for(workload, seconds, 2)
    untraced = run_session(workload, session_seed(seed, 0), frames)
    tracer = Tracer()
    traced = run_session(workload, session_seed(seed, 0), frames, tracer)
    metrics = layer_metrics(traced, tracer, untraced.raw_frame_us)
    detail = {
        "sessions": 2,
        "frames_per_session": frames,
        "root_span_us_per_frame": tracer.root_ns / 1e3 / frames,
        "calls_per_frame": {
            target: count / frames for target, count in tracer.calls.items()
        },
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "errors": [r.error for r in (untraced, traced) if r.error is not None],
    }
    return metrics, detail


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append this run as a JSON line")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bind_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setups = [set_up(workload, args.seed)]
    if args.setup_probe:
        print(json.dumps(setups[0]))
        return 0

    kind = "per_layer" if args.trace else "end_to_end"
    spec = declared(kind)
    if args.trace:
        values, detail = measure_layers(workload, args.seed, args.seconds)
    else:
        values, detail = measure_end_to_end(workload, args.seed, args.seconds)
        setups += probe_set_up(args.workload, args.seed)
        values["setup_s"] = statistics.median(cost for cost, __ in setups)
        detail["setup_s"] = {
            "each": [cost for cost, __ in setups],
            "raw_median": statistics.median(raw for __, raw in setups),
        }
    if set(values) != set(spec):
        odd = sorted(set(values) ^ set(spec))
        sys.exit(f"run.py: metrics differ from BENCHMARK.json {kind}: {odd}")

    print(f"{args.workload}  seed {args.seed}  {kind}")
    for name, value in values.items():
        unit, better = spec[name]["unit"], spec[name]["better"]
        print(f"  {name:42s} {value:14.4f} {unit:9s} ({better} is better)")
    cost = detail.get("session_frame_us")
    if cost is not None:
        q1, __, q3 = cost["quartiles"]
        print(
            f"  session_frame_us quartiles {q1:.1f}..{q3:.1f} over "
            f"{cost['slices']} slices of {detail['sessions']} sessions x "
            f"{detail['frames_per_session']} frames (uncalibrated median "
            f"{cost['raw_median']:.1f}); {detail['frame_samples']} frame-time samples"
        )
    failed, attempted = detail["failed"], detail["attempted"]
    print(f"  operations: {attempted} attempted, {failed} failed")
    for error in detail["errors"]:
        print(f"  error: {error}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": spec[name]["unit"]}
            for name, value in values.items()
        },
    }
    if args.out is not None:
        record = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            detail=detail,
            env=environment(),
        )
        with args.out.open("a") as sink:
            sink.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
