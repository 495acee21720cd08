#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --smoke

Builds the simulator and the driver from source (benchmark/CMakeLists.txt,
flags pinned to -O2 -DNDEBUG) into $CARGO_TARGET_DIR or .bench_build, runs
the driver, writes the full result record to
benchmark/out/run-<workload>-s<seed>-t<trace>.json, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (a layer the workload does
not exercise reads 0 and is listed under "not_applicable" in the record),
and a Chrome trace is written next to the record.  --smoke runs every
workload with tiny sizes, traced and untraced, and checks every gate.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to benchmark/: nothing to build")
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "shs-benchmark")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "bench_driver"],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "bench_driver")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, env=env)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def summary(values):
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    if not values:
        return {}
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def run_driver(driver, workload, seed, seconds, trace, smoke=False):
    """Runs the driver; returns (record, trace_path or None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    trace_path = None
    if trace:
        trace_path = os.path.join(OUT_DIR, f"trace-{workload}-s{seed}.json")
        cmd += ["--trace-out", trace_path]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: driver printed nothing (exit {proc.returncode})")
    record = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        fail(f"{workload}: driver exited {proc.returncode}")
    return record, trace_path


def finish(record, spec, trace_path):
    """Checks the metric set against BENCHMARK.json; returns the record
    extended with summaries and the contract result line."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = record["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if not record["trace"] and missing and record["correct"]:
        fail(f"{record['workload']}: end-to-end metrics missing: {missing}")
    record["not_applicable"] = missing
    for name in missing:
        metrics[name] = {"value": 0.0, "unit": next(
            m["unit"] for m in wanted if m["name"] == name), "trials": []}
    for m in metrics.values():
        m["summary"] = summary(m["trials"])
    if trace_path:
        try:
            with open(trace_path) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            record["correct"] = False
            record["gate_failures"].append(f"trace does not load: {e}")
    record["git_rev"] = git_rev()
    record["time"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    return record, line


def write_record(record):
    name = (f"run-{record['workload']}-s{record['seed']}"
            f"-t{record['trace']}.json")
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


def smoke(driver, spec):
    ok = True
    unmeasured = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            record, trace_path = run_driver(driver, w["name"], 1, 0.2, trace,
                                            smoke=True)
            record, _ = finish(record, spec, trace_path)
            bad = record["gate_failures"] if not record["correct"] else []
            produced = set(record["metrics"]) - set(record["not_applicable"])
            unmeasured -= produced
            print(f"smoke {w['name']:20s} trace={trace} "
                  f"correct={record['correct']} metrics={len(produced)} {bad}")
            ok = ok and record["correct"]
    if unmeasured:
        print(f"smoke: per-layer metrics no workload produces: "
              f"{sorted(unmeasured)}")
        ok = False
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    driver = build()
    if args.smoke:
        return smoke(driver, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record, trace_path = run_driver(driver, args.workload, args.seed, seconds,
                                    args.trace)
    record, line = finish(record, spec, trace_path)
    write_record(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
