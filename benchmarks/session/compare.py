#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.jsonl B.jsonl``.

Each file holds the JSON lines ``run.py --out`` appended — usually the
same seeds on every workload, A from the parent commit and B from the
change (or twice from one commit, to see the noise floor).  Per workload
and end-to-end metric this prints both medians with their quartiles, the
ratio B/A with its base, and a verdict against the bound ``BENCHMARK.json``
fixes for that metric:

* ``same``   — B's median is within the bound of A's (or the two sides
  read exactly the same, as virtual-time metrics do under equal seeds);
* ``worse`` / ``better`` — it is outside the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over median,
  on either side) is wider than the bound, so the bound cannot be
  checked — unless every run of one side beats every run of the other.

A workload with failed operations on side B is ``worse`` on every metric:
a frame that was not presented identically at both sites misses every
bound.  ``--layers`` adds the per-layer metrics of the traced runs (no
bounds, so no verdicts).  The exit code is 1 if anything is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

Runs = Dict[Tuple[str, int], List[dict]]  # (workload, trace) -> records


def load(path: Path) -> Runs:
    runs: Runs = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["trace"])].append(record)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """Is B the same as, worse or better than A — or can the bound not tell?"""
    if sorted(a) == sorted(b):
        return "same"  # virtual-time metrics under the same seeds: exact
    sign = 1.0 if better == "lower" else -1.0
    a_cost = [sign * value for value in a]  # lower is better from here on
    b_cost = [sign * value for value in b]
    if max(spread(a), spread(b)) > bound:
        if min(b_cost) > max(a_cost):
            return "worse"
        if max(b_cost) < min(a_cost):
            return "better"
        return "unresolved"
    base = statistics.median(a_cost)
    change = (statistics.median(b_cost) - base) / abs(base) if base else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def values_of(records: List[dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def describe_env(label: str, runs: Runs) -> str:
    records = [r for group in runs.values() for r in group]
    loads = [r["env"]["loadavg"][0] for r in records]
    first = records[0]["env"]
    return (
        f"{label}: {len(records)} runs, nproc {first['nproc']}, "
        f"python {first['python']}, load {min(loads):.2f}..{max(loads):.2f}"
    )


def compare(a_runs: Runs, b_runs: Runs, spec: dict, layers: bool) -> int:
    kinds = [(0, spec["end_to_end"])] + ([(1, spec["per_layer"])] if layers else [])
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in kinds:
            a_records = a_runs.get((workload, trace), [])
            b_records = b_runs.get((workload, trace), [])
            if not a_records or not b_records:
                continue
            a_failed = sum(r["failed"] for r in a_records)
            b_failed = sum(r["failed"] for r in b_records)
            print(
                f"\n{workload} ({'per-layer' if trace else 'end-to-end'}): "
                f"A {len(a_records)} runs, {a_failed} failed operations; "
                f"B {len(b_records)} runs, {b_failed} failed operations"
            )
            for metric in metrics:
                name = metric["name"]
                a = values_of(a_records, name)
                b = values_of(b_records, name)
                if not a or not b:
                    continue
                a1, a2, a3 = quartiles(a)
                b1, b2, b3 = quartiles(b)
                ratio = f"{b2 / a2:.4f}" if a2 else "-"
                line = (
                    f"  {name:40s} A {a2:12.4f} [{a1:.4f}..{a3:.4f}]  "
                    f"B {b2:12.4f} [{b1:.4f}..{b3:.4f}]  "
                    f"B/A {ratio} of {a2:.4f} {metric['unit']}"
                )
                if "bound" in metric:
                    if b_failed:
                        outcome = "worse"
                    else:
                        outcome = verdict(a, b, metric["better"], metric["bound"])
                    worse += outcome == "worse"
                    line += f"  bound {metric['bound']:.0%}  {outcome}"
                print(line)
    return worse


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(args.a), load(args.b)
    print(describe_env("A", a_runs))
    print(describe_env("B", b_runs))
    worse = compare(a_runs, b_runs, spec, args.layers)
    print(f"\n{worse} metric(s) worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
