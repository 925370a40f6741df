#!/usr/bin/env python3
"""Median and quartile spread of each metric over stored runs.

    python3 refbench/summarize.py [RESULT.json ...]

With no arguments it reads every untraced result in
.bench_build/refbench-results/. For each workload and metric it prints the
run count, the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median: the figures a before/after comparison needs.
"""

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

RESULTS = os.path.join(".bench_build", "refbench-results", "*-t0.json")


def main(paths):
    values = {}
    for path in paths or sorted(glob.glob(RESULTS)):
        with open(path) as handle:
            result = json.load(handle)
        for name, value in result["end_to_end"].items():
            values.setdefault((result["workload"], name), []).append(value)
    for (workload, name), series in sorted(values.items()):
        if len(series) < 2:
            print(f"{workload:14s} {name:16s} n={len(series)} value={series[0]:.6g}")
            continue
        q1, q2, q3 = statistics.quantiles(series, n=4)
        print(f"{workload:14s} {name:16s} n={len(series):2d} median={harness.median(series):.6g} "
              f"q1={q1:.6g} q3={q3:.6g} spread={harness.quartile_spread(series):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
