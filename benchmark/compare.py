#!/usr/bin/env python3
"""Compares two sets of benchmark result records metric by metric.

    python3 benchmark/compare.py <set A: dir or run-*.json...> -- <set B: ...>

Each set is run-*.json records written by benchmark/run.py (a directory
stands for every run-*.json in it).  For every workload and every
end-to-end metric of BENCHMARK.json it reports the median of each set,
the change of B against A in the metric's worse direction, and a verdict:

  within      B is no worse than A by more than the metric's bound
  regressed   B is worse by more than the bound
  improved    every run of B reads better than every run of A
  unresolved  a set's spread (quartile distance over median) exceeds the
              bound, so the sets cannot be told apart at that bound

Records whose host (nproc, hardware_concurrency, engine workers, compiler,
flags) differ are flagged as a host mismatch.  Exit status 1 when any
metric regressed or is unresolved.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(args):
    paths = []
    for a in args:
        paths += sorted(glob.glob(os.path.join(a, "run-*.json"))) \
            if os.path.isdir(a) else [a]
    records = []
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        if not r.get("trace"):
            records.append(r)
    return records


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    a, b = load(argv[:cut]), load(argv[cut + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    hosts = {json.dumps(r["host"], sort_keys=True) for r in a + b}
    if len(hosts) > 1:
        print("HOST MISMATCH:")
        for h in sorted(hosts):
            print("  " + h)
    incorrect = [f"{r['workload']} seed {r['seed']}" for r in a + b
                 if not r["correct"]]
    if incorrect:
        print("INCORRECT RUNS: " + ", ".join(incorrect))

    bad = bool(incorrect)
    print(f"{'workload':20s} {'metric':16s} {'median A':>14s} "
          f"{'median B':>14s} {'worse':>8s} {'bound':>6s} "
          f"{'spreadA':>8s} {'spreadB':>8s}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        ra = [r for r in a if r["workload"] == w]
        rb = [r for r in b if r["workload"] == w]
        if not ra or not rb:
            print(f"{w:20s} (missing from {'A' if not ra else 'B'})")
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            sa, sb = spread(va), spread(vb)
            if max(sign * v for v in vb) < min(sign * v for v in va):
                verdict = "improved"
            elif max(sa, sb) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
            else:
                verdict = "within"
            bad = bad or verdict in ("regressed", "unresolved")
            print(f"{w:20s} {m['name']:16s} {ma:14.6g} {mb:14.6g} "
                  f"{worse:+8.3f} {m['bound']:6.2f} {sa:8.3f} {sb:8.3f}  "
                  f"{verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
