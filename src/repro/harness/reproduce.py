"""One command per experiment: run the registry, emit a report.

``python -m repro reproduce [ID ...] [--frames N] [--full] [--out DIR]``
runs the selected experiments of :data:`EXPERIMENTS` (all 13 by default,
one per EXPERIMENTS.md table), prints each table as it is done, then
writes:

* ``report.md`` — every table, formatted as in EXPERIMENTS.md,
* ``results.json`` — the raw numbers, machine-readable, for
  ``repro validate`` and regression tracking across versions.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.harness import report as fmt
from repro.harness.ablations import (
    run_adaptive_lag_ablation,
    run_batching_ablation,
    run_lag_ablation,
    run_pacing_ablation,
    run_transport_ablation,
)
from repro.harness.experiment import PAPER_RTT_SWEEP, REDUCED_RTT_SWEEP
from repro.harness.extensions import run_bandwidth, run_latejoin, run_multisite, run_rollback
from repro.harness.series1 import run_series1, run_threshold
from repro.harness.series2 import run_series2
from repro.harness.series3 import run_series3

#: Frames per run above which an experiment caps ``--frames``: every
#: experiment but the two figures and the loss sweep runs many sessions.
FRAME_CEILING = 900
UNCAPPED = ("figure1", "figure2", "loss")


def _sweep(full: bool) -> List[float]:
    return PAPER_RTT_SWEEP if full else REDUCED_RTT_SWEEP


def _defaults(run: Callable[..., list]) -> Callable[[int, bool], list]:
    """An experiment whose every parameter but ``frames`` is ``run``'s default."""
    return lambda frames, full: run(frames=frames)


#: id -> (run(frames, full) -> rows, format(rows) -> table), in
#: EXPERIMENTS.md order.  ``full`` selects the paper's 25-point RTT sweep
#: for the figures; every other parameter is the run function's default.
EXPERIMENTS: Dict[str, Tuple[Callable[[int, bool], list], Callable[[list], str]]] = {
    "figure1": (lambda frames, full: run_series1(_sweep(full), frames), fmt.format_series1),
    "figure2": (lambda frames, full: run_series2(_sweep(full), frames), fmt.format_series2),
    "threshold": (_defaults(run_threshold), fmt.format_threshold),
    "loss": (_defaults(run_series3), fmt.format_series3),
    "multisite": (_defaults(run_multisite), fmt.format_multisite),
    "latejoin": (_defaults(run_latejoin), fmt.format_latejoin),
    "ablation_pacing": (_defaults(run_pacing_ablation), fmt.format_pacing_ablation),
    "ablation_transport": (_defaults(run_transport_ablation), fmt.format_transport_ablation),
    "ablation_lag": (_defaults(run_lag_ablation), fmt.format_lag_ablation),
    "ablation_batching": (_defaults(run_batching_ablation), fmt.format_batching_ablation),
    "ablation_adaptive": (_defaults(run_adaptive_lag_ablation), fmt.format_adaptive_lag_ablation),
    "rollback": (_defaults(run_rollback), fmt.format_rollback),
    "bandwidth": (_defaults(run_bandwidth), fmt.format_bandwidth),
}


def experiment_frames(experiment: str, frames: int) -> int:
    """The frames each run of ``experiment`` records when ``frames`` are asked for."""
    return frames if experiment in UNCAPPED else min(frames, FRAME_CEILING)


def run_reproduction(
    ids: Optional[Iterable[str]] = None,
    frames: int = 600,
    full_sweep: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the ``ids`` experiments (default: all); returns
    ``{"meta": ..., "experiments": {id: (rows, table)}}``.

    ``progress`` (e.g. ``print``) is called with each table as soon as its
    experiment is done.
    """
    selected = list(EXPERIMENTS) if not ids else list(ids)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments {unknown}; known: {list(EXPERIMENTS)}")
    results: Dict[str, Tuple[list, str]] = {}
    for name in selected:
        run, format_rows = EXPERIMENTS[name]
        rows = run(experiment_frames(name, frames), full_sweep)
        results[name] = (rows, format_rows(rows))
        if progress is not None:
            progress(results[name][1])
    return {
        "meta": {
            "frames": frames,
            "full_sweep": full_sweep,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "experiments": results,
    }


def write_reproduction(
    output_dir: str,
    ids: Optional[Iterable[str]] = None,
    frames: int = 600,
    full_sweep: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[str, str]:
    """Run the experiments and write report.md + results.json into ``output_dir``.

    Returns the two file paths.
    """
    bundle = run_reproduction(ids, frames=frames, full_sweep=full_sweep, progress=progress)
    os.makedirs(output_dir, exist_ok=True)

    report_path = os.path.join(output_dir, "report.md")
    json_path = os.path.join(output_dir, "results.json")

    meta = bundle["meta"]
    experiments: Dict[str, Tuple[list, str]] = bundle["experiments"]  # type: ignore[assignment]

    with open(report_path, "w") as handle:
        handle.write(
            "# Reproduction report\n\n"
            f"Generated {meta['generated_at']}, {meta['frames']} frames per run "
            f"(at most {FRAME_CEILING} but in {', '.join(UNCAPPED)}), "
            f"{'full' if meta['full_sweep'] else 'reduced'} RTT sweep.\n\n"
        )
        for name, (__rows, table) in experiments.items():
            handle.write(f"## {name}\n\n```\n{table}\n```\n\n")

    payload = {
        "meta": meta,
        "experiments": {
            name: [dataclasses.asdict(row) for row in rows]
            for name, (rows, __table) in experiments.items()
        },
    }
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    return report_path, json_path
