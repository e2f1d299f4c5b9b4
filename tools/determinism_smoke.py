#!/usr/bin/env python3
"""Seed-matrix determinism smoke for adversity-hardened serve runs.

The serving engine's contract is that a fixed seed pins a run bit-exactly —
including under environment-fault injection. This smoke drives the real CLI
end to end: for every requested seed it runs the same adversity x scenario
serve twice with a Chrome JSON --trace-out and --metrics-out, and twice
more with an NSFT (.bin) --trace-out, byte-compares each pair of
artifacts, and then asserts that two *different* seeds actually diverge
(a trivially constant artifact would pass the first check).

Registered as the `determinism_smoke` ctest (CMakeLists.txt) and run in the
CI sanitizer leg across a three-seed matrix (.github/workflows/ci.yml).

Usage:
    tools/determinism_smoke.py --cli build/nsflow [--seeds 7,13,42]
        [--adversity replica-fail] [--scenario diurnal:depth=0.8]
"""

import argparse
import filecmp
import pathlib
import subprocess
import sys
import tempfile


def run_serve(cli, outdir, tag, seed, adversity, scenario,
              admission="", tiers="", cluster="", trace_suffix="json"):
    """One traced serve run; returns (trace_path, metrics_path)."""
    trace = outdir / f"trace_{tag}.{trace_suffix}"
    metrics = outdir / f"metrics_{tag}.json"
    cmd = [
        str(cli), "serve",
        "--mix", "mlp=0.5,resnet18=0.5",
        "--replicas", "4",
        "--partition",
        "--qps", "300",
        "--duration", "2",
        "--seed", str(seed),
        "--scenario", scenario,
        "--adversity", adversity,
        "--trace-out", str(trace),
        "--metrics-out", str(metrics),
    ]
    if admission:
        cmd += ["--admission", admission]
    if tiers:
        cmd += ["--tiers", tiers]
    if cluster:
        cmd += ["--cluster", cluster]
    result = subprocess.run(cmd, capture_output=True, text=True)
    # Admission runs signal shedding severity through exit codes 4/5 by
    # design (docs/ADMISSION.md); only other codes are run failures.
    expected = (0, 4, 5) if admission else (0,)
    if result.returncode not in expected:
        sys.stderr.write(result.stdout + result.stderr)
        raise SystemExit(f"serve run failed (seed {seed}): {' '.join(cmd)}")
    for path in (trace, metrics):
        if not path.is_file() or path.stat().st_size == 0:
            raise SystemExit(f"artifact missing or empty: {path}")
    return trace, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True,
                        help="path to the built nsflow binary")
    parser.add_argument("--seeds", default="7,13,42",
                        help="comma-separated seed matrix (>= 2 seeds)")
    parser.add_argument("--adversity", default="replica-fail",
                        help="fault pattern under test")
    parser.add_argument("--scenario", default="diurnal:depth=0.8",
                        help="traffic scenario composed with the fault")
    parser.add_argument("--admission", default="",
                        help="admission policy spec composed with the run "
                             "(empty = flag omitted, the byte-identical "
                             "admission-off path)")
    parser.add_argument("--tiers", default="",
                        help="--tiers assignment for admission runs "
                             "(empty = flag omitted)")
    parser.add_argument("--cluster", default="",
                        help="cluster spec composed with the run, e.g. "
                             "least-loaded:nodes=2 (empty = flag omitted, "
                             "the byte-identical single-box path)")
    args = parser.parse_args()

    cli = pathlib.Path(args.cli)
    if not cli.is_file():
        raise SystemExit(f"no such CLI binary: {cli}")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if len(seeds) < 2:
        raise SystemExit("need at least two seeds to check divergence")

    failures = 0
    with tempfile.TemporaryDirectory(prefix="nsflow_determinism_") as tmp:
        outdir = pathlib.Path(tmp)
        first_trace_of = {}
        for seed in seeds:
            for suffix in ("json", "bin"):
                a_trace, a_metrics = run_serve(
                    cli, outdir, f"s{seed}_{suffix}_a", seed, args.adversity,
                    args.scenario, args.admission, args.tiers, args.cluster,
                    suffix)
                b_trace, b_metrics = run_serve(
                    cli, outdir, f"s{seed}_{suffix}_b", seed, args.adversity,
                    args.scenario, args.admission, args.tiers, args.cluster,
                    suffix)
                for name, a, b in ((f"{suffix} trace", a_trace, b_trace),
                                   ("metrics", a_metrics, b_metrics)):
                    if filecmp.cmp(a, b, shallow=False):
                        print(f"seed {seed}: {name} byte-identical "
                              f"({a.stat().st_size} bytes)")
                    else:
                        print(f"FAIL: seed {seed}: same-seed {name} "
                              f"artifacts differ ({a} vs {b})")
                        failures += 1
                if suffix == "json":
                    first_trace_of[seed] = a_trace

        # Different seeds must diverge — otherwise the byte-compare above
        # proves nothing (e.g. an artifact that ignores the run entirely).
        base = seeds[0]
        for other in seeds[1:]:
            if filecmp.cmp(first_trace_of[base], first_trace_of[other],
                           shallow=False):
                print(f"FAIL: seeds {base} and {other} produced identical "
                      "traces — the seed is not reaching the run")
                failures += 1
            else:
                print(f"seeds {base} vs {other}: traces diverge (expected)")

    if failures:
        raise SystemExit(f"{failures} determinism check(s) failed")
    combo = f"{args.adversity} x {args.scenario}"
    if args.admission:
        combo += f" x {args.admission}"
    if args.cluster:
        combo += f" x {args.cluster}"
    print(f"determinism smoke passed for seeds {seeds} ({combo})")


if __name__ == "__main__":
    main()
