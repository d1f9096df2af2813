#!/usr/bin/env python3
"""Compares the parent and change sides of a committed benchmark record.

A record (a BENCH_*.json file at the repository root) holds perfbench's
result and meta lines for every run a change made: alternating pairs of
the parent commit and the change, on each workload. For each workload and
each end-to-end metric that BENCHMARK.json names, this prints each side's
median and quartiles, the spread, the ratio of the medians and how many
pairs the change won.

The spread is perfbench's: the distance between the first and third
quartile, as statistics.quantiles(values, n=4) gives them, as a share of
the median. A pair is a win when the change's value is better in the
metric's direction; ties count for neither side. Runs made with tracing on
(trace 1) carry per-layer metrics, not end-to-end ones, and are only
counted.

Usage: python3 tools/bench_compare.py BENCH_<name>.json
Exits 1 when the record is malformed.
"""

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end_metrics():
    """[(name, unit, better)] from BENCHMARK.json."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def load_runs(path):
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    runs = record.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ValueError("record has no runs")
    for i, run in enumerate(runs):
        for key in ("pair", "side", "workload", "trace", "result"):
            if key not in run:
                raise ValueError(f"run {i} has no '{key}'")
        if run["side"] not in SIDES:
            raise ValueError(f"run {i} has side {run['side']!r}")
    return record, runs


def compare_workload(workload, runs, metrics):
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = sorted(p for p, sides in by_pair.items() if len(sides) == 2)
    if not pairs:
        raise ValueError(f"{workload}: no pair has both sides")
    seeds = sorted({by_pair[p]["parent"].get("seed") for p in pairs})
    print(f"## {workload}: {len(pairs)} pairs, seeds {seeds}")
    for side in SIDES:
        results = [by_pair[p][side]["result"] for p in pairs]
        correct = sum(1 for r in results if r.get("correct"))
        failed = sum(r.get("failed", 0) for r in results)
        attempted = sum(r.get("attempted", 0) for r in results)
        print(f"{side}: {correct}/{len(results)} correct, "
              f"{failed}/{attempted} DC-rounds failed")
    print(f"{'metric':<12} {'unit':<4} "
          f"{'parent median [q1, q3] spread':<36} "
          f"{'change median [q1, q3] spread':<36} {'parent/change':>13} "
          f"{'wins':>6}")
    for name, unit, better in metrics:
        values = {side: [by_pair[p][side]["result"]["metrics"][name]["value"]
                         for p in pairs] for side in SIDES}
        cells = {}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            spread = (q3 - q1) / med if med else float("nan")
            cells[side] = (med, f"{med:.4g} [{q1:.4g}, {q3:.4g}] {spread:.3f}")
        wins = sum(1 for a, b in zip(values["parent"], values["change"])
                   if (b < a if better == "lower" else b > a))
        ratio = (cells["parent"][0] / cells["change"][0]
                 if cells["change"][0] else float("nan"))
        print(f"{name:<12} {unit:<4} {cells['parent'][1]:<36} "
              f"{cells['change'][1]:<36} {ratio:>12.3f}x "
              f"{wins:>3}/{len(pairs)}")
    print()


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/bench_compare.py BENCH_<name>.json",
              file=sys.stderr)
        return 2
    try:
        record, runs = load_runs(argv[1])
        metrics = end_to_end_metrics()
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_compare: cannot read {argv[1]}: {e!r}", file=sys.stderr)
        return 1
    try:
        print(record.get("title", argv[1]))
        if "command" in record:
            print(f"command: {record['command']}")
        print()
        timed = [r for r in runs if r["trace"] == 0]
        workloads = sorted({r["workload"] for r in timed})
        for workload in workloads:
            compare_workload(workload,
                             [r for r in timed if r["workload"] == workload],
                             metrics)
        traced = len(runs) - len(timed)
        if traced:
            print(f"{traced} traced runs (per-layer metrics) not compared")
    except (ValueError, KeyError, TypeError) as e:
        print(f"bench_compare: malformed record {argv[1]}: {e!r}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
