#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload pool12-steady --seed 1 --seconds 30 --trace 0

builds the driver (CMake, Release) into .bench_build/perfbench, runs one
workload, and prints the run's fingerprint and checks, then as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

    --out FILE                 also append the run (fingerprint + result) to FILE
    --compare BASE.jsonl NEW.jsonl
                               compare two sets of --out runs metric by metric;
                               refuses (exit 2) unless both sets hold the same
                               fingerprints
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure once, then build incrementally; returns the driver path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "nsflow_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return out / "nsflow_bench"


def run(args):
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit("perfbench: driver failed (exit %d)" % done.returncode)
    record = json.loads(lines[-1])
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    for violation in record["violations"]:
        print("CHECK FAILED: " + violation)
    result = {key: record[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"fingerprint": record["fingerprint"],
                                "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if record["correct"] and done.returncode == 0 else 1


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(base_path, new_path):
    """Median of each metric per workload, BASE vs NEW, against the bounds
    in BENCHMARK.json. Runs are comparable only when fingerprints match."""
    base, new = load(base_path), load(new_path)
    key = lambda run: json.dumps(run["fingerprint"], sort_keys=True)
    if sorted(map(key, base)) != sorted(map(key, new)):
        print("perfbench: refusing to compare: the two sets of runs have "
              "different fingerprints (host, compiler, build type, workload, "
              "seed, seconds or trace mode)")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    workloads = sorted({r["fingerprint"]["workload"] for r in base})
    for workload in workloads:
        for name in sorted(metrics):
            values = lambda runs: [
                r["result"]["metrics"][name]["value"] for r in runs
                if r["fingerprint"]["workload"] == workload
                and name in r["result"]["metrics"]]
            b, n = values(base), values(new)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            m = metrics[name]
            change = (mn - mb) / abs(mb) if mb else 0.0
            if m["better"] == "higher":
                change = -change
            bound = m.get("bound")
            flag = ""
            if bound is not None and change > bound:
                flag = "  WORSE than bound %.2f" % bound
                worse += 1
            print("%-24s %-40s %14.6g -> %14.6g %s%+.1f%%%s" % (
                workload, name, mb, mn, m["unit"] + " ", 100 * change, flag))
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
