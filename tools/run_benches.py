#!/usr/bin/env python3
"""NSFlow perf-regression harness.

Runs the serve benches from an existing build tree and records the perf
trajectory artifacts: BENCH_serve.json (fast-path cycle estimation — see
docs/PERFORMANCE.md) and BENCH_plan.json (capacity-planner predicted vs
measured p99 per traffic scenario, the elastic-vs-static autoscale
headline, the adversity hardening gate, the admission overload gate, and
the multi-node cluster survival gate — see docs/PLANNING.md,
docs/AUTOSCALING.md, docs/SCENARIOS.md, docs/ADMISSION.md, and
docs/CLUSTER.md). The heavy
lifting happens inside bench_serve_fastpath and bench_plan_scenarios;
this script drives them, sanity-checks the emitted JSON, and fails loudly
when the fast-path estimator diverges from the functional simulator, a
planned pool's measured tail leaves the documented tolerance band, or the
autoscaled run misses its SLO / replica-seconds gate.

Perf-trajectory gate (`--compare`): compare the freshly emitted artifacts
against checked-in baselines (bench/baselines/) and exit non-zero on
regression. Metrics come in two classes:

  * virtual  — results on the simulated timeline (throughput, p99,
               replica counts, the autoscale replica-seconds ratio).
               Deterministic up to libm differences across platforms;
               gated at --tolerance (default 0.25 relative).
  * wall     — host wall-clock measurements (fill times, warm-hit ns,
               engine wall ms). Machine-dependent, so gated only against
               catastrophic regressions at --wall-tolerance (default 10x)
               while still being recorded in the delta report.

Improvements never fail the gate. `--delta-out` writes the full
per-metric comparison as JSON (the CI bench-smoke job uploads it). The
gate refuses (exit 2, naming the field) a fresh BENCH_serve.json whose
`smoke` flag, or a BENCH_plan.json whose `setup` object, differs from the
baseline's: those runs are not comparable.

Usage:
  tools/run_benches.py [--build-dir build] [--out BENCH_serve.json]
                       [--plan-out BENCH_plan.json] [--smoke] [--full]
                       [--compare bench/baselines] [--tolerance 0.25]
                       [--wall-tolerance 10] [--delta-out BENCH_delta.json]
                       [--trace-out trace.json]

  --smoke  reduced iteration counts (the CI bench-smoke job's mode)
  --full   additionally run the serve throughput/multi-tenant sweeps
           (console tables only; they do not feed the JSON)
"""

import argparse
import json
import pathlib
import subprocess
import sys


def run(cmd, **kwargs):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    return subprocess.run(cmd, **kwargs)


def require_binary(build, target):
    """The bench binary, or a clear non-zero exit telling what to build."""
    path = build / target
    if not path.exists():
        sys.exit(f"error: {path} not found — build target {target} first:\n"
                 f"  cmake -B {build} -S . && "
                 f"cmake --build {build} -j --target {target}")
    return path


def load_artifact(path):
    """Parse an emitted artifact, failing with a clear message instead of a
    traceback when the file is missing or truncated."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        sys.exit(f"error: bench artifact {path} was not written")
    except json.JSONDecodeError as err:
        sys.exit(f"error: bench artifact {path} is not valid JSON ({err})")


# ---------------------------------------------------------------- comparison

def collect_metrics(serve_report, plan_report):
    """(name, value, better, cls) rows for the perf-trajectory gate.

    `better` is the direction of improvement ("higher"/"lower"); `cls` is
    "virtual" (simulated-timeline results, tight tolerance) or "wall"
    (host timings, catastrophic-only tolerance).
    """
    metrics = []
    if serve_report is not None:
        cold = serve_report["cold_cache"]
        metrics += [
            ("serve.throughput_rps",
             serve_report["serve"]["throughput_rps"], "higher", "virtual"),
            ("serve.p99_ms", serve_report["serve"]["p99_ms"],
             "lower", "virtual"),
            ("cold_cache.speedup", cold["speedup"], "higher", "wall"),
            ("latency_cache.warm_hit_ns",
             serve_report["latency_cache"]["warm_hit_ns"], "lower", "wall"),
            ("serve.engine_wall_ms",
             serve_report["serve"]["engine_wall_ms"], "lower", "wall"),
        ]
        obs = serve_report.get("obs_overhead")
        if obs is not None:
            metrics += [
                ("obs_overhead.ratio", obs["ratio"], "lower", "wall"),
                ("obs_overhead.on_wall_ms", obs["on_wall_ms"],
                 "lower", "wall"),
            ]
        event_core = serve_report.get("event_core")
        if event_core is not None:
            metrics += [
                ("event_core.heap_events_per_s",
                 event_core["heap_events_per_s"], "higher", "wall"),
                ("event_core.event_wall_ms", event_core["event_wall_ms"],
                 "lower", "wall"),
            ]
    if plan_report is not None:
        for row in plan_report["scenarios"]:
            tag = f"plan[{row['scenario']}]"
            metrics += [
                (f"{tag}.replicas", row["replicas"], "lower", "virtual"),
                (f"{tag}.throughput_rps", row["throughput_rps"],
                 "higher", "virtual"),
                (f"{tag}.planning_wall_ms", row["planning_wall_ms"],
                 "lower", "wall"),
                (f"{tag}.wall_ms", row["wall_ms"], "lower", "wall"),
            ]
        autoscale = plan_report.get("autoscale")
        if autoscale is not None:
            metrics += [
                ("autoscale.replica_seconds_ratio",
                 autoscale["replica_seconds_ratio"], "lower", "virtual"),
                ("autoscale.elastic_p99_ms", autoscale["elastic_p99_ms"],
                 "lower", "virtual"),
                ("autoscale.elastic_wall_ms", autoscale["elastic_wall_ms"],
                 "lower", "wall"),
            ]
        adversity = plan_report.get("adversity")
        if adversity is not None:
            metrics += [
                ("adversity.replica_seconds_overhead",
                 adversity["replica_seconds_overhead"], "lower", "virtual"),
                ("adversity.fault_p99_ms", adversity["fault_p99_ms"],
                 "lower", "virtual"),
                ("adversity.fault_wall_ms", adversity["fault_wall_ms"],
                 "lower", "wall"),
            ]
        admission = plan_report.get("admission")
        if admission is not None:
            metrics += [
                ("admission.critical_p99_ms",
                 admission["critical_p99_ms"], "lower", "virtual"),
                ("admission.wall_ms", admission["wall_ms"],
                 "lower", "wall"),
            ]
        cluster = plan_report.get("cluster")
        if cluster is not None:
            metrics += [
                ("cluster.critical_p99_ms",
                 cluster["critical_p99_ms"], "lower", "virtual"),
                ("cluster.remote_batches", cluster["remote_batches"],
                 "lower", "virtual"),
                ("cluster.network_s", cluster["network_s"],
                 "lower", "virtual"),
                ("cluster.wall_ms", cluster["wall_ms"], "lower", "wall"),
            ]
    return metrics


def compare(baseline_dir, serve_report, plan_report, out_name, plan_name,
            tolerance, wall_tolerance, delta_out):
    """Gate the fresh artifacts against the checked-in baselines. Returns
    the number of gated regressions (0 = pass)."""
    baseline_serve = load_artifact(baseline_dir / out_name)
    baseline_plan = load_artifact(baseline_dir / plan_name)
    # A smoke run measured against a full baseline (or a plan served under
    # another set-up) compares different experiments: refuse it.
    for name, fresh, base in (
            (f"{out_name} smoke", serve_report.get("smoke"),
             baseline_serve.get("smoke")),
            (f"{plan_name} setup", plan_report.get("setup"),
             baseline_plan.get("setup"))):
        if fresh != base:
            print(f"error: {name} is {json.dumps(fresh)} but the baseline "
                  f"in {baseline_dir} has {json.dumps(base)}; refusing to "
                  f"compare mismatched runs", file=sys.stderr)
            sys.exit(2)
    current = dict(
        (name, (value, better, cls))
        for name, value, better, cls in collect_metrics(serve_report,
                                                        plan_report))
    rows = []
    regressions = 0
    for name, base, better, cls in collect_metrics(baseline_serve,
                                                   baseline_plan):
        if name not in current:
            rows.append({"metric": name, "baseline": base,
                         "status": "missing-in-current"})
            regressions += 1
            continue
        value = current[name][0]
        # Relative regression in the "worse" direction; improvements are
        # negative and never gate.
        if base == 0:
            change = 0.0 if value == 0 else float("inf")
        elif better == "lower":
            change = (value - base) / abs(base)
        else:
            change = (base - value) / abs(base)
        allowed = tolerance if cls == "virtual" else wall_tolerance
        status = "ok" if change <= allowed else "REGRESSION"
        if status != "ok":
            regressions += 1
            print(f"PERF REGRESSION: {name} {base:g} -> {value:g} "
                  f"({change:+.1%} worse, {cls} tolerance {allowed:.0%})",
                  file=sys.stderr)
        rows.append({"metric": name, "class": cls, "better": better,
                     "baseline": base, "current": value,
                     "regression": change, "allowed": allowed,
                     "status": status})
    report = {
        "baseline_dir": str(baseline_dir),
        "tolerance": tolerance,
        "wall_tolerance": wall_tolerance,
        "regressions": regressions,
        "metrics": rows,
    }
    if delta_out:
        with open(delta_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {delta_out}")
    worst = max((r.get("regression", 0.0) for r in rows
                 if isinstance(r.get("regression"), float)), default=0.0)
    print(f"perf gate: {len(rows)} metric(s) vs {baseline_dir}, "
          f"{regressions} regression(s), worst change {worst:+.1%}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build tree holding the bench binaries")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="where to write the perf artifact")
    parser.add_argument("--plan-out", default="BENCH_plan.json",
                        help="where to write the planner/scenario artifact")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced iteration counts (CI mode)")
    parser.add_argument("--full", action="store_true",
                        help="also run the serve sweep benches")
    parser.add_argument("--compare", metavar="BASELINE_DIR",
                        help="gate the fresh artifacts against baseline "
                             "BENCH_serve.json/BENCH_plan.json in this "
                             "directory (bench/baselines in CI)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression for virtual "
                             "(simulated-timeline) metrics")
    parser.add_argument("--wall-tolerance", type=float, default=10.0,
                        help="allowed relative regression for wall-clock "
                             "metrics (machine-dependent; catastrophic-"
                             "only)")
    parser.add_argument("--delta-out", metavar="FILE",
                        help="write the per-metric comparison report here")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="also write the traced bench run's Chrome "
                             "trace JSON (docs/OBSERVABILITY.md; the CI "
                             "bench-smoke job uploads it)")
    args = parser.parse_args()

    build = pathlib.Path(args.build_dir).resolve()
    fastpath = require_binary(build, "bench_serve_fastpath")

    cmd = [str(fastpath), "--out", args.out]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    result = run(cmd)
    if result.returncode != 0:
        print("error: bench_serve_fastpath failed "
              "(estimator/functional divergence, or the observability "
              "overhead gate tripped)",
              file=sys.stderr)
        return result.returncode

    # Independent sanity pass over the artifact: the bench already exits
    # non-zero on divergence, but a malformed or truncated JSON should not
    # reach CI artifacts silently.
    report = load_artifact(args.out)
    divergent = report["contract"]["divergent"]
    if divergent != 0:
        print(f"error: {divergent} divergent cycle estimates",
              file=sys.stderr)
        return 1
    cold = report["cold_cache"]
    print(f"cold-cache fill: functional {cold['functional_fill_us']:.1f} us "
          f"-> fast path {cold['fastpath_fill_us']:.1f} us "
          f"({cold['speedup']:.1f}x), "
          f"warm hit {report['latency_cache']['warm_hit_ns']:.0f} ns")
    serve = report["serve"]
    print(f"serve: {serve['throughput_rps']:.1f} rps over "
          f"{serve['virtual_duration_s']:.1f} virtual s "
          f"({serve['engine_wall_ms']:.1f} ms wall), "
          f"p99 {serve['p99_ms']:.3f} ms")
    obs = report.get("obs_overhead")
    if obs is not None:
        if not obs["ok"]:
            print("error: observability overhead gate recorded a breach in "
                  "the artifact", file=sys.stderr)
            return 1
        print(f"obs overhead: off {obs['off_wall_ms']:.3f} ms -> on "
              f"{obs['on_wall_ms']:.3f} ms ({obs['ratio']:.2f}x, gate "
              f"{obs['gate_ratio']:.2f}x + {obs['gate_epsilon_ms']:.1f} ms)")
    event_core = report.get("event_core")
    if event_core is not None:
        if not event_core["ok"]:
            print("error: event-core events/s gate recorded a breach in "
                  "the artifact", file=sys.stderr)
            return 1
        gate = ("" if event_core["gate_enforced"]
                else ", informational on this build")
        print(f"event core: {event_core['heap_events_per_s'] / 1e6:.1f}M "
              f"events/s (gate "
              f"{event_core['gate_events_per_s'] / 1e6:.0f}M{gate}), "
              f"run wall {event_core['event_wall_ms']:.2f} ms")

    # Planner/scenario smoke: plan once, validate predicted vs measured
    # p99 under each arrival pattern, then the autoscale elastic-vs-static
    # comparison. The bench itself exits non-zero on a tolerance or gate
    # violation; re-check the artifact independently.
    plan_bench = require_binary(build, "bench_plan_scenarios")
    cmd = [str(plan_bench), "--out", args.plan_out]
    if args.smoke:
        cmd.append("--smoke")
    result = run(cmd)
    if result.returncode != 0:
        print("error: bench_plan_scenarios failed (measured p99 outside the "
              "documented tolerance of the plan's prediction, or the "
              "autoscale SLO/replica-seconds gate tripped)",
              file=sys.stderr)
        return result.returncode
    plan_report = load_artifact(args.plan_out)
    if plan_report["tolerance"]["violations"] != 0:
        print("error: planner tolerance violations recorded in artifact",
              file=sys.stderr)
        return 1
    rows = plan_report["scenarios"]
    ratios = [w["ratio"] for row in rows for w in row["per_workload"]]
    print(f"plan: {len(rows)} scenario(s) planned+validated, "
          f"p99 meas/pred ratios {min(ratios):.2f}..{max(ratios):.2f}")
    autoscale = plan_report.get("autoscale")
    if autoscale is not None:
        print(f"autoscale: elastic pool used "
              f"{100 * autoscale['replica_seconds_ratio']:.0f}% of the "
              f"static replica-seconds at p99 "
              f"{autoscale['elastic_p99_ms']:.2f} ms "
              f"(SLO {autoscale['p99_slo_ms']:.0f} ms, "
              f"gate {100 * autoscale['replica_seconds_gate']:.0f}%)")
    adversity = plan_report.get("adversity")
    if adversity is not None:
        print(f"adversity: {adversity['pattern']} held p99 "
              f"{adversity['fault_p99_ms']:.2f} ms "
              f"(SLO {adversity['p99_slo_ms']:.0f} ms) at "
              f"{100 * (adversity['replica_seconds_overhead'] - 1):.1f}% "
              f"replica-seconds overhead (gate "
              f"{100 * (adversity['overhead_gate'] - 1):.0f}%)")
    admission = plan_report.get("admission")
    if admission is not None:
        print(f"admission: {admission['policy']} held critical p99 "
              f"{admission['critical_p99_ms']:.2f} ms "
              f"(SLO {admission['p99_slo_ms']:.0f} ms) under "
              f"{admission['scenario']} + {admission['adversity']}, "
              f"shedding {admission['batch_shed']} batch-tier request(s), "
              f"{admission['protected_tier_losses']} protected-tier "
              f"loss(es)")
    cluster = plan_report.get("cluster")
    if cluster is not None:
        print(f"cluster: {cluster['spec']} over {cluster['nodes']} node(s) "
              f"held critical p99 {cluster['critical_p99_ms']:.2f} ms "
              f"(SLO {cluster['p99_slo_ms']:.0f} ms) through "
              f"{cluster['adversity']}, {cluster['remote_batches']} remote "
              f"batch(es), {cluster['bytes_moved'] / 1e6:.1f} MB moved, "
              f"{cluster['network_s'] * 1e3:.1f} ms modeled network")

    if args.full:
        for bench in ("bench_serve_throughput", "bench_serve_multitenant",
                      "bench_scalability"):
            path = build / bench
            if path.exists():
                if run([str(path)]).returncode != 0:
                    print(f"error: {bench} failed", file=sys.stderr)
                    return 1
            else:
                print(f"note: {path} not built, skipping "
                      f"(build target {bench} to include it)")

    print(f"wrote {args.out} and {args.plan_out}")

    if args.compare:
        baseline_dir = pathlib.Path(args.compare)
        if not baseline_dir.is_dir():
            sys.exit(f"error: baseline directory {baseline_dir} not found")
        regressions = compare(baseline_dir, report, plan_report,
                              "BENCH_serve.json", "BENCH_plan.json",
                              args.tolerance, args.wall_tolerance,
                              args.delta_out)
        if regressions:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
