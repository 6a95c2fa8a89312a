#!/usr/bin/env python3
"""Compare benchmark results of a parent commit with those of a change.

    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS

Each argument is a `.perfbench_runs` directory that run.py filled in a
checkout of that commit, with the same benchmark code and settings. For every
workload and end-to-end metric it prints both medians over runs, their
quartile spreads, how many same-seed pairs the change won, and whether the
change stayed within the bound BENCHMARK.json fixes. Output digests that
differ between the two sides are listed; they are reported, not counted as
failures, since a change may alter results on purpose if it says which.
Per-layer metrics from traced runs are printed side by side.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(runs_dir, trace):
    """{workload: {seed: results}} for the full-size runs in runs_dir."""
    out = {}
    for path in sorted(glob.glob(os.path.join(runs_dir, "*.trace%d.json" % trace))):
        with open(path) as fh:
            res = json.load(fh)
        out.setdefault(res["workload"], {})[res["seed"]] = res
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = (load(d, 0) for d in argv)
    for workload in sorted(set(parent) & set(change)):
        a, b = parent[workload], change[workload]
        seeds = sorted(set(a) & set(b))
        print("%s: %d parent runs, %d change runs, %d same-seed pairs"
              % (workload, len(a), len(b), len(seeds)))
        for name, m in bounds.items():
            va = [r["metrics"][name]["value"] for r in a.values()]
            vb = [r["metrics"][name]["value"] for r in b.values()]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma
            wins = sum(1 for s in seeds if sign * (b[s]["metrics"][name]["value"]
                                                  - a[s]["metrics"][name]["value"]) < 0)
            if spread(va) > m["bound"]:
                verdict = "unresolved (parent spread above bound)"
            elif worse > m["bound"]:
                verdict = "WORSE than bound %.2f" % m["bound"]
            else:
                verdict = "within bound %.2f" % m["bound"]
            print("  %-12s parent %10.4g (spread %.3f)  change %10.4g (spread %.3f)  "
                  "%+6.1f%% worse  wins %d/%d  %s" % (
                      name, ma, spread(va), mb, spread(vb), 100 * worse, wins,
                      len(seeds), verdict))
        failed = [sum(r["failed"] for r in side.values()) for side in (a, b)]
        print("  failed invocations: parent %d, change %d" % tuple(failed))
        for s in seeds:
            da, db = a[s]["digests"], b[s]["digests"]
            changed = sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))
            if changed:
                print("  seed %d: output digests differ for %s" % (s, ", ".join(changed)))
    tp, tc = load(argv[0], 1), load(argv[1], 1)
    if tp and tc:
        layer_a = next(iter(next(iter(tp.values())).values()))["layers"]
        layer_b = next(iter(next(iter(tc.values())).values()))["layers"]
        print("per-layer metrics (one traced run each side):")
        for name in sorted(set(layer_a) & set(layer_b)):
            print("  %-48s parent %12.6g  change %12.6g %s" % (
                name, layer_a[name]["value"], layer_b[name]["value"], layer_a[name]["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
