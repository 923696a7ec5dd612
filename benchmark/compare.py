#!/usr/bin/env python3
"""Compares two benchmark result sets metric by metric.

    python3 benchmark/compare.py A.json B.json

A and B are result sets written by `benchmark/run.py --seed N` (A is the
baseline, B the candidate). For every workload and every end-to-end metric
of BENCHMARK.json it prints each set's median and quartiles over the untraced
runs, the spread (interquartile range over median) and B's change against
A, signed so that positive means worse. A metric is

  worse       when B's median is worse than A's by more than the bound,
  unresolved  when either set's spread exceeds the bound (unless every run
              of B reads better than every run of A),
  better      when B's median is better than A's by more than the bound,
  ok          otherwise.

The exit status is 1 when any metric is worse or any run failed an output
check, else 0.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def untraced(result_set):
    runs = {}
    for r in result_set["runs"]:
        if not r.get("trace"):
            runs.setdefault(r["workload"], []).append(r)
    return runs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    a_set, b_set = load(sys.argv[1]), load(sys.argv[2])
    a_runs, b_runs = untraced(a_set), untraced(b_set)
    status = 0
    for name, rs in (("A", a_set["runs"]), ("B", b_set["runs"])):
        bad = [r for r in rs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{name}: {len(bad)} run(s) failed an output check")
            status = 1
    print(f"A: {sys.argv[1]} ({a_set['meta'].get('git_sha')})")
    print(f"B: {sys.argv[2]} ({b_set['meta'].get('git_sha')})")
    for w in [w["name"] for w in spec["workloads"]]:
        ra, rb = a_runs.get(w, []), b_runs.get(w, [])
        if not ra or not rb:
            print(f"\n{w}: missing from one set")
            status = 1
            continue
        print(f"\n{w}  (runs: A {len(ra)}, B {len(rb)})")
        print(f"  {'metric':14s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'spreadA':>8s} {'spreadB':>8s} "
              f"{'change':>8s} {'bound':>6s}  status")
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            sa = (a3 - a1) / am if am else 0.0
            sb = (b3 - b1) / bm if bm else 0.0
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (bm - am) / am if am else 0.0
            bound = m["bound"]
            all_better = (max(vb) < min(va) if sign > 0
                          else min(vb) > max(va))
            if change > bound:
                verdict = "worse"
                status = 1
            elif max(sa, sb) > bound and not all_better:
                verdict = "unresolved"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"  {m['name']:14s} "
                  f"{am:12.5g} [{a1:9.5g}, {a3:9.5g}] "
                  f"{bm:12.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{sa:8.3f} {sb:8.3f} {change:+8.3f} {bound:6.2f}  "
                  f"{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
