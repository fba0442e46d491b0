#!/usr/bin/env python3
"""Spread and agreement of benchmark results.

  python3 perfbench/compare.py A.jsonl [B.jsonl]

Each file holds result records as run.py appends them to
.perfbench/results.jsonl.  For every workload and end-to-end metric of
BENCHMARK.json this prints the median over the untraced runs in A and the
distance between their first and third quartiles as a share of that median,
next to the metric's bound.  Given B as well, it prints how much worse B's
median is than A's, against the same bound.  Results taken with different
term kernels are refused.  The exit code is 0 when every spread but that of
setup_s is below a third of its bound and, given B, no median is worse by
more than its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_workload(records):
    out = {}
    for r in records:
        if r["trace"] == 0:
            out.setdefault(r["workload"], []).append(r)
    return out


def values(records, name):
    return [r["metrics"][name]["value"] for r in records]


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    backends = {r["backend"] for records in sets for r in records}
    if len(backends) > 1:
        print("refusing to compare results of different kernels: %s"
              % ", ".join(sorted(backends)), file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["end_to_end"]
    groups = [by_workload(records) for records in sets]
    ok = True
    print("%-15s %-15s %5s %12s %8s %8s %8s" % (
        "workload", "metric", "runs", "median", "spread", "bound", "B worse"))
    for workload, first in sorted(groups[0].items()):
        for m in spec:
            name, bound = m["name"], m["bound"]
            xs = values(first, name)
            med = statistics.median(xs)
            s = spread(xs) if len(xs) >= 2 else float("nan")
            if name != "setup_s" and not s < bound / 3:
                ok = False
            worse = ""
            if len(groups) == 2 and workload in groups[1]:
                change = statistics.median(values(groups[1][workload], name)) / med - 1
                worse = "%+.3f" % change
                if change > bound:
                    ok = False
            print("%-15s %-15s %5d %12.6g %8.3f %8.3f %8s" % (
                workload, name, len(xs), med, s, bound, worse))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
