#!/usr/bin/env python
"""Two sites over *real* UDP sockets on localhost, in wall-clock time.

This is the deployment shape of the paper's system: the very same sans-IO
protocol objects that the simulator drives are here bound to OS sockets and
the monotonic clock.  Two coroutines on one asyncio loop stand in for the
two PCs.

    python examples/real_udp_session.py [--frames 300] [--fps 60]
"""

import argparse

from repro import ConsistencyChecker, SyncConfig
from repro.core.aio import AioSessionSpec, run_sessions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=300)
    parser.add_argument("--fps", type=float, default=60.0)
    args = parser.parse_args()

    spec = AioSessionSpec(
        game="shooter",
        frames=args.frames,
        seed=100,
        config=SyncConfig(cfps=args.fps),
        linger=0.5,  # how long a finished site keeps acking its peer
    )
    print(f"running {args.frames} frames at {args.fps} FPS over real UDP ...")
    (runtimes,) = run_sessions([spec])  # raises if a site failed

    verified = ConsistencyChecker().verify_traces([rt.trace for rt in runtimes])
    print(f"converged: {verified} frames bit-identical across both sites")
    for runtime in runtimes:
        times = runtime.trace.frame_times()
        mean_ms = sum(times) / len(times) * 1000
        print(
            f"  site {runtime.site_no}: mean frame time {mean_ms:.2f} ms "
            f"(target {1000 / args.fps:.2f} ms), "
            f"state 0x{runtime.machine.checksum():08x}"
        )
    print("\nfinal screen (site 0):")
    print(runtimes[0].machine.render_text())


if __name__ == "__main__":
    main()
