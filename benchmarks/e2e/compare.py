"""Compare two sets of end-to-end benchmark results, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit) and ``B`` the change.  Each is a
results file written by ``run.py`` or a directory of them (one file per
seed); traced runs are skipped.  One row per (metric, workload) gives both
medians, the change, each side's quartile spread (``(Q3 - Q1) / median``)
and a verdict, using the bounds in ``BENCHMARK.json``:

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  a side's spread is wider than the bound, and B's runs do
                not all read better (or all worse) than A's;
``better``      B wins at least nine tenths of the runs paired by seed and
                the medians differ by more than A's quartile distance;
``same``        otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> "dict[int, dict]":
    """``seed -> {(workload, metric): value}`` from a file or directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict = {}
    for file in files:
        report = json.loads(file.read_text())
        if report.get("trace"):
            continue
        values = runs.setdefault(report["seed"], {})
        for workload, result in report["workloads"].items():
            for metric, entry in result["metrics"].items():
                values[(workload, metric)] = entry["value"]
    return runs


def spread(values: "list[float]") -> "tuple[float, float]":
    """(Q3 - Q1, median) — the quartile distance is 0 for a single run."""
    median = statistics.median(values)
    if len(values) < 2:
        return 0.0, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, median


def verdict(a, b, bound: float, better: str, pairs) -> "tuple[str, float]":
    """The row's verdict and the relative change (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    iqr_a, med_a = spread(a)
    iqr_b, med_b = spread(b)
    change = sign * (med_b - med_a) / med_a if med_a else 0.0

    def gain(x, y):  # y reads better than x
        return sign * (x - y) > 0

    if max(iqr_a / med_a if med_a else 0.0, iqr_b / med_b if med_b else 0.0) > bound:
        if all(gain(x, y) for x in a for y in b):
            return "better", change
        if change > bound and all(gain(y, x) for x in a for y in b):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    wins = sum(gain(x, y) for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > iqr_a:
        return "better", change
    return "same", change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load_runs(args.baseline), load_runs(args.change)
    if not side_a or not side_b:
        print("error: no untraced results on one side", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'metric':<14}{'workload':<15}{'median A':>12}{'median B':>12}"
          f"{'change':>9}{'spread A':>10}{'spread B':>10}{'n':>6}  verdict")
    any_worse = False
    for metric in spec["end_to_end"]:
        for workload in workloads:
            key = (workload, metric["name"])
            a = [run[key] for _, run in sorted(side_a.items()) if key in run]
            b = [run[key] for _, run in sorted(side_b.items()) if key in run]
            if not a or not b:
                print(f"{metric['name']:<14}{workload:<15}{'':>58}  missing")
                continue
            pairs = [
                (side_a[seed][key], side_b[seed][key])
                for seed in sorted(set(side_a) & set(side_b))
                if key in side_a[seed] and key in side_b[seed]
            ]
            result, change = verdict(
                a, b, metric["bound"], metric["better"], pairs
            )
            any_worse |= result == "worse"
            (iqr_a, med_a), (iqr_b, med_b) = spread(a), spread(b)
            print(f"{metric['name']:<14}{workload:<15}{med_a:>12.4f}{med_b:>12.4f}"
                  f"{change:>+9.1%}{iqr_a / med_a:>10.1%}{iqr_b / med_b:>10.1%}"
                  f"{f'{len(a)}/{len(b)}':>6}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
