#!/usr/bin/env python3
"""Compare repeated benchmark results of a parent and a change.

    python3 tools/bench_compare.py --parent P.txt --change C.txt
                                   [--spec BENCHMARK.json]

Each input file holds the stdout of several `perfbench/run.py` runs of
one workload, concatenated; every line that parses as a result object
(a JSON object with "metrics") is one run, and all other lines are
ignored. For each end-to-end metric BENCHMARK.json declares, the
script prints, for each side, the median and the IQR over the median,
then the change/parent ratio of the medians. It also prints the share
of failed operations on each side.

A metric is flagged when the change's median is worse than the
parent's by more than that metric's `bound` (a fraction of the parent
median, in the metric's `better` direction), and a rise in the failed
share is flagged too. The exit code is 1 when anything is flagged,
2 on bad input, 0 otherwise. BENCHMARK.json is only read.
"""

import argparse
import json
import statistics
import sys


def load_runs(path):
    """The result objects of @p path, one per run, in file order."""
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "metrics" in obj:
                runs.append(obj)
    return runs


def metric_values(runs, name):
    """The values of metric @p name across @p runs (run.py nests each
    as {"value", "unit"}; a bare number is accepted too)."""
    values = []
    for run in runs:
        m = run["metrics"].get(name)
        if m is None:
            continue
        values.append(float(m["value"] if isinstance(m, dict) else m))
    return values


def iqr_over_median(values):
    """Interquartile range over the median (0 for fewer than 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def failed_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="result lines of the parent's runs")
    parser.add_argument("--change", required=True,
                        help="result lines of the change's runs")
    parser.add_argument("--spec", default="BENCHMARK.json",
                        help="benchmark declaration (default: %(default)s)")
    args = parser.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    if not parent or not change:
        print("bench_compare: no result lines in %s"
              % (args.parent if not parent else args.change),
              file=sys.stderr)
        return 2

    print("runs: parent %d, change %d" % (len(parent), len(change)))
    header = "%-14s %12s %9s %12s %9s %8s  %s" % (
        "metric", "parent", "iqr/med", "change", "iqr/med", "ratio",
        "verdict")
    print(header)
    flagged = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p = metric_values(parent, name)
        c = metric_values(change, name)
        if not p or not c:
            print("%-14s missing on %s" % (name,
                                           "parent" if not p else "change"))
            flagged.append(name)
            continue
        p_med = statistics.median(p)
        c_med = statistics.median(c)
        ratio = c_med / p_med if p_med else float("inf")
        bound = float(metric["bound"])
        if metric["better"] == "lower":
            worse = c_med > p_med * (1.0 + bound)
        else:
            worse = c_med < p_med * (1.0 - bound)
        verdict = "WORSE (bound %g)" % bound if worse else "ok"
        if worse:
            flagged.append(name)
        print("%-14s %12.6g %9.3f %12.6g %9.3f %8.3f  %s" % (
            name, p_med, iqr_over_median(p), c_med, iqr_over_median(c),
            ratio, verdict))

    p_fail = failed_share(parent)
    c_fail = failed_share(change)
    fail_worse = c_fail > p_fail
    print("%-14s %12.6g %9s %12.6g %9s %8s  %s" % (
        "failed_share", p_fail, "", c_fail, "", "",
        "WORSE" if fail_worse else "ok"))
    if fail_worse:
        flagged.append("failed_share")

    if flagged:
        print("flagged: %s" % ", ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
