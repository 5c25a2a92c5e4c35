#!/usr/bin/env python
"""Two sites over *real* UDP sockets on localhost, in wall-clock time.

This is the deployment shape of the paper's system: the very same sans-IO
protocol objects that the simulator drives are here bound to OS sockets and
the monotonic clock.  Two threads stand in for the two PCs (run the script
twice with --site 0/--site 1 on two machines for the real thing).

    python examples/real_udp_session.py [--frames 300] [--fps 60]
"""

import argparse
import threading

from repro import (
    ConsistencyChecker,
    PadSource,
    RandomSource,
    SitePeer,
    SiteRuntime,
    SyncConfig,
    InputAssignment,
    create_game,
)
from repro.core.engine import SiteEngine
from repro.core.realtime import RealtimeVM
from repro.net.udp import UdpSocket


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=300)
    parser.add_argument("--fps", type=float, default=60.0)
    args = parser.parse_args()

    config = SyncConfig(cfps=args.fps)
    assignment = InputAssignment.standard(2)

    sockets = [UdpSocket(), UdpSocket()]
    peers = [SitePeer(i, sockets[i].address) for i in range(2)]
    print(f"site 0 on {sockets[0].address}, site 1 on {sockets[1].address}")

    vms = []
    for site in range(2):
        runtime = SiteRuntime(
            config=config,
            site_no=site,
            assignment=assignment,
            machine=create_game("shooter"),
            source=PadSource(RandomSource(seed=100 + site, toggle_p=0.2), player=site),
            peers=peers,
            game_id="shooter",
        )
        engine = SiteEngine(runtime, args.frames, linger=2.0)
        vms.append(RealtimeVM(engine, sockets[site]))

    threads = [
        threading.Thread(target=vm.run, name=f"site{i}") for i, vm in enumerate(vms)
    ]
    print(f"running {args.frames} frames at {args.fps} FPS over real UDP ...")
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for socket in sockets:
        socket.close()

    for vm in vms:
        if vm.error is not None:
            raise SystemExit(f"site {vm.runtime.site_no} failed: {vm.error}")

    traces = [vm.runtime.trace for vm in vms]
    verified = ConsistencyChecker().verify_traces(traces)
    print(f"converged: {verified} frames bit-identical across both sites")
    for vm in vms:
        times = vm.runtime.trace.frame_times()
        mean_ms = sum(times) / len(times) * 1000
        print(
            f"  site {vm.runtime.site_no}: mean frame time {mean_ms:.2f} ms "
            f"(target {1000 / args.fps:.2f} ms), "
            f"state 0x{vm.runtime.machine.checksum():08x}"
        )
    print("\nfinal screen (site 0):")
    print(vms[0].runtime.machine.render_text())


if __name__ == "__main__":
    main()
