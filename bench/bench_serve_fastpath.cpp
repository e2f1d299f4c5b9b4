// NSFlow-Serve fast-path perf-regression bench — the source of
// BENCH_serve.json (docs/PERFORMANCE.md).
//
// Three measurements plus one contract check, all on the serving mix
// mlp=0.6,resnet18=0.3,nvsa=0.1:
//   1. cold-cache evaluation cost: nanoseconds per latency-cache miss under
//      the pre-fast-path functional protocol (scratch Accelerator +
//      RunWorkloadBatch, what ServerPool::BatchSeconds used to do) vs the
//      timing-only estimator (what it does now);
//   2. pool cache behavior: wall-clock of filling every cache entry under
//      the functional protocol vs a cold WarmBatchSizes sweep, both on
//      one thread — their ratio is the cold-cache speedup the fast path
//      delivers — and of re-reading every entry warm (latency-table hits);
//   3. end-to-end engine time: RunSyntheticServe under the mix with a fixed
//      seed, reporting wall-clock, throughput, and tail latencies.
// The contract check asserts estimator == functional (exact double
// equality) for every (workload, batch size, tuned/refit) the pool can
// evaluate; any divergence makes the bench exit non-zero, which is what
// the CI bench-smoke job keys on.
//
// A fourth section times the event loop (docs/ENGINE.md): its end-to-end
// wall and arrival events/s on the same fixed-seed run.
//
// A fifth section gates the observability overhead contract
// (docs/OBSERVABILITY.md): the same fixed-seed mix run is timed with
// tracing off and on (paired, best-of-N), and the bench exits non-zero
// when obs-on costs more than 5% wall-clock over obs-off (plus a small
// absolute epsilon — smoke runs are sub-millisecond). `--trace-out FILE`
// additionally writes the traced run's Chrome JSON, which the CI
// bench-smoke job uploads as an artifact.
//
// Usage: bench_serve_fastpath [--out BENCH_serve.json] [--smoke]
//                             [--trace-out trace.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "arch/fastpath.h"
#include "common/json.h"
#include "obs/observability.h"
#include "runtime/host_runtime.h"
#include "serve/engine.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nsflow;

  std::string out_path = "BENCH_serve.json";
  std::string trace_out_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out BENCH_serve.json] [--smoke] "
                   "[--trace-out trace.json]\n",
                   argv[0]);
      return 2;
    }
  }
  const int eval_iters = smoke ? 20 : 200;
  const double serve_duration_s = smoke ? 0.5 : 2.0;

  std::printf("=== NSFlow-Serve: fast-path perf regression ===\n\n");

  const std::string mix_spec = "mlp=0.6,resnet18=0.3,nvsa=0.1";
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  registry.RegisterBuiltin("nvsa");
  const std::vector<serve::ReplicaSpec> specs =
      registry.ReplicaSpecs(/*replicas=*/3, /*partitioned=*/false);

  serve::ServeOptions options;
  options.qps = 400.0;
  options.duration_s = serve_duration_s;
  options.max_batch = 8;
  options.max_wait_s = 5e-3;
  options.seed = 42;

  // Every (hardware kind, workload, batch size) the pool's latency cache
  // can hold for this deployment.
  struct Eval {
    const AcceleratorDesign* hardware;
    const DataflowGraph* dfg;
    int batch;
    bool tuned;
  };
  std::vector<Eval> evals;
  for (const serve::ReplicaSpec& spec : specs) {
    for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
      for (std::int64_t b = 1; b <= options.max_batch; ++b) {
        evals.push_back(Eval{&spec.design, &registry.dataflow(w),
                             static_cast<int>(b), w == spec.tuned_for});
      }
    }
  }

  // ------------------------------------------------- contract check first
  std::int64_t divergent = 0;
  for (const Eval& e : evals) {
    runtime::Accelerator functional(
        e.tuned ? *e.hardware : serve::RefitDesign(*e.hardware, *e.dfg),
        *e.dfg);
    const double functional_s = functional.RunWorkloadBatch(e.batch);
    const double estimated_s = arch::EstimateServingBatchSeconds(
        *e.hardware, *e.dfg, e.batch, e.tuned);
    if (functional_s != estimated_s) {
      ++divergent;
      std::fprintf(stderr,
                   "DIVERGENCE: batch %d tuned=%d functional=%.17g "
                   "estimated=%.17g\n",
                   e.batch, e.tuned ? 1 : 0, functional_s, estimated_s);
    }
  }
  std::printf("Contract: %zu (kind, workload, batch) evaluations, %lld "
              "divergent\n",
              evals.size(), static_cast<long long>(divergent));

  // ------------------------------------------- cold-cache evaluation cost
  // Functional protocol (pre-fast-path cache miss): scratch deployment +
  // cycle-level run per entry. One call fills every entry once.
  double sink = 0.0;  // Defeat dead-code elimination.
  const auto functional_fill = [&] {
    for (const Eval& e : evals) {
      runtime::Accelerator scratch(
          e.tuned ? *e.hardware : serve::RefitDesign(*e.hardware, *e.dfg),
          *e.dfg);
      sink += scratch.RunWorkloadBatch(e.batch);
    }
  };
  const auto functional_start = Clock::now();
  for (int it = 0; it < eval_iters; ++it) {
    functional_fill();
  }
  const double functional_ns =
      ElapsedNs(functional_start) / (static_cast<double>(eval_iters) *
                                     static_cast<double>(evals.size()));

  const auto estimator_start = Clock::now();
  for (int it = 0; it < eval_iters; ++it) {
    for (const Eval& e : evals) {
      sink += arch::EstimateServingBatchSeconds(*e.hardware, *e.dfg, e.batch,
                                                e.tuned);
    }
  }
  const double estimator_ns =
      ElapsedNs(estimator_start) / (static_cast<double>(eval_iters) *
                                    static_cast<double>(evals.size()));
  std::printf("Per-eval: functional %.0f ns, estimator %.0f ns (%.1fx)\n",
              functional_ns, estimator_ns, functional_ns / estimator_ns);

  // --------------------------------------------------- pool cold vs warm
  // The headline cold-cache metric: filling a fresh pool's latency cache
  // end to end, on one thread each. The functional protocol pays a fresh
  // deployment plus a cycle-level simulation per (kind, workload, batch
  // size) entry. The fast path is today's WarmBatchSizes: loop
  // equations once per (kind, workload), every batch size derived from the
  // memoized ServingModel. Best of several rounds each (steady_clock
  // granularity makes single cold runs noisy).
  const int cold_rounds = smoke ? 5 : 20;
  double functional_cold_total_ns = 0.0;
  for (int round = 0; round < cold_rounds; ++round) {
    const auto start = Clock::now();
    functional_fill();
    const double ns = ElapsedNs(start);
    if (round == 0 || ns < functional_cold_total_ns) {
      functional_cold_total_ns = ns;
    }
  }

  double cold_total_ns = 0.0;
  for (int round = 0; round < cold_rounds; ++round) {
    serve::ServerPool fresh(specs, registry.Dataflows());
    const auto cold_start = Clock::now();
    fresh.WarmBatchSizes(options.max_batch);
    const double ns = ElapsedNs(cold_start);
    if (round == 0 || ns < cold_total_ns) {
      cold_total_ns = ns;
    }
  }
  const double cold_speedup = functional_cold_total_ns / cold_total_ns;

  serve::ServerPool pool(specs, registry.Dataflows());
  pool.WarmBatchSizes(options.max_batch);
  const auto warm_start = Clock::now();
  for (int r = 0; r < pool.size(); ++r) {
    for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
      for (std::int64_t b = 1; b <= options.max_batch; ++b) {
        sink += pool.BatchSeconds(r, w, b);
      }
    }
  }
  const double warm_hits = static_cast<double>(pool.size()) *
                           static_cast<double>(registry.size()) *
                           static_cast<double>(options.max_batch);
  const double warm_ns_per_hit = ElapsedNs(warm_start) / warm_hits;
  std::printf("Cold cache fill: functional protocol %.1f us, fast path "
              "%.1f us -> %.1fx; warm hit %.0f ns\n",
              functional_cold_total_ns / 1e3, cold_total_ns / 1e3,
              cold_speedup, warm_ns_per_hit);

  // ------------------------------------------------- end-to-end serve run
  const std::vector<serve::WorkloadShare> mix = serve::ParseMix(mix_spec);
  const auto serve_start = Clock::now();
  const serve::ServeReport report =
      serve::RunSyntheticServe(registry, specs, mix, options);
  const double engine_wall_ms = ElapsedNs(serve_start) / 1e6;
  std::printf("Serve run (%s, %.1f qps, %.1f s virtual): %.1f ms wall, "
              "%.1f rps, p99 %.3f ms\n",
              mix_spec.c_str(), options.qps, options.duration_s,
              engine_wall_ms, report.summary.throughput_rps,
              report.summary.p99_ms);

  // ------------------------------------------------------------ event loop
  // Driver wall: the same fixed-seed mix run end to end, best of N — the
  // event loop's arrival throughput.
  const int engine_rounds = smoke ? 3 : 5;
  double event_wall_ms = 0.0;
  std::int64_t event_run_requests = 0;
  for (int round = 0; round < engine_rounds; ++round) {
    const auto start = Clock::now();
    const serve::ServeReport event_run =
        serve::RunSyntheticServe(registry, specs, mix, options);
    const double event_ms = ElapsedNs(start) / 1e6;
    sink += static_cast<double>(event_run.summary.completed);
    event_run_requests = event_run.generated_requests;
    if (round == 0 || event_ms < event_wall_ms) {
      event_wall_ms = event_ms;
    }
  }
  const double run_events_per_s =
      static_cast<double>(event_run_requests) / (event_wall_ms / 1e3);
  std::printf("Engine wall (best of %d): %.2f ms; %.0fk arrival events/s "
              "end-to-end\n",
              engine_rounds, event_wall_ms, run_events_per_s / 1e3);

  // ------------------------------------------- observability overhead gate
  // Paired obs-off / obs-on runs of the same fixed-seed mix, best-of-N
  // (the virtual clock makes the *work* identical; only recording cost
  // differs). The contract (docs/OBSERVABILITY.md): obs-on wall-clock may
  // not exceed obs-off by more than 5%, with a small absolute epsilon so
  // sub-millisecond smoke runs don't gate on scheduler jitter.
  const int obs_rounds = smoke ? 5 : 7;
  const double obs_epsilon_ms = 0.2;
  serve::ServeOptions obs_options = options;
  obs_options.duration_s = smoke ? 2.0 : 4.0;
  double obs_off_ms = 0.0;
  double obs_on_ms = 0.0;
  std::shared_ptr<obs::Observability> obs_bundle;
  for (int round = 0; round < obs_rounds; ++round) {
    obs_options.trace.enabled = false;
    auto start = Clock::now();
    const serve::ServeReport off =
        serve::RunSyntheticServe(registry, specs, mix, obs_options);
    const double off_ms = ElapsedNs(start) / 1e6;
    sink += static_cast<double>(off.summary.completed);
    if (round == 0 || off_ms < obs_off_ms) {
      obs_off_ms = off_ms;
    }

    obs_options.trace.enabled = true;
    start = Clock::now();
    serve::ServeReport on =
        serve::RunSyntheticServe(registry, specs, mix, obs_options);
    const double on_ms = ElapsedNs(start) / 1e6;
    sink += static_cast<double>(on.summary.completed);
    if (round == 0 || on_ms < obs_on_ms) {
      obs_on_ms = on_ms;
    }
    obs_bundle = std::move(on.obs);  // Deterministic: any round's is THE trace.
  }
  const double obs_ratio = obs_on_ms / obs_off_ms;
  const bool obs_gate_ok =
      obs_on_ms <= obs_off_ms * 1.05 + obs_epsilon_ms;
  std::printf("Obs overhead (best of %d): off %.3f ms, on %.3f ms -> "
              "%.3fx (gate 1.05 + %.1f ms) %s\n",
              obs_rounds, obs_off_ms, obs_on_ms, obs_ratio, obs_epsilon_ms,
              obs_gate_ok ? "OK" : "FAIL");

  if (!trace_out_path.empty() && obs_bundle) {
    std::ofstream trace_file(trace_out_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot write %s\n", trace_out_path.c_str());
      return 2;
    }
    trace_file << obs_bundle->ChromeTraceJson() << "\n";
    std::printf("Wrote %s\n", trace_out_path.c_str());
  }

  // ------------------------------------------------------------ emit JSON
  JsonObject cold_cache;
  cold_cache["cache_entries"] = Json(static_cast<std::int64_t>(evals.size()));
  cold_cache["rounds"] = Json(eval_iters);
  cold_cache["functional_ns_per_eval"] = Json(functional_ns);
  cold_cache["estimator_ns_per_eval"] = Json(estimator_ns);
  cold_cache["functional_fill_us"] = Json(functional_cold_total_ns / 1e3);
  cold_cache["fastpath_fill_us"] = Json(cold_total_ns / 1e3);
  cold_cache["speedup"] = Json(cold_speedup);

  JsonObject cache;
  cache["warm_hit_ns"] = Json(warm_ns_per_hit);

  JsonObject serve_run;
  serve_run["mix"] = Json(mix_spec);
  serve_run["qps"] = Json(options.qps);
  serve_run["virtual_duration_s"] = Json(options.duration_s);
  serve_run["replicas"] = Json(static_cast<std::int64_t>(specs.size()));
  serve_run["max_batch"] = Json(options.max_batch);
  serve_run["seed"] = Json(static_cast<std::uint64_t>(options.seed));
  serve_run["engine_wall_ms"] = Json(engine_wall_ms);
  serve_run["completed"] = Json(report.summary.completed);
  serve_run["throughput_rps"] = Json(report.summary.throughput_rps);
  serve_run["p50_ms"] = Json(report.summary.p50_ms);
  serve_run["p95_ms"] = Json(report.summary.p95_ms);
  serve_run["p99_ms"] = Json(report.summary.p99_ms);

  JsonObject obs_overhead;
  obs_overhead["rounds"] = Json(obs_rounds);
  obs_overhead["virtual_duration_s"] = Json(obs_options.duration_s);
  obs_overhead["off_wall_ms"] = Json(obs_off_ms);
  obs_overhead["on_wall_ms"] = Json(obs_on_ms);
  obs_overhead["ratio"] = Json(obs_ratio);
  obs_overhead["gate_ratio"] = Json(1.05);
  obs_overhead["gate_epsilon_ms"] = Json(obs_epsilon_ms);
  obs_overhead["ok"] = Json(obs_gate_ok);

  JsonObject event_core;
  event_core["event_wall_ms"] = Json(event_wall_ms);
  event_core["run_events_per_s"] = Json(run_events_per_s);

  JsonObject contract;
  contract["checked"] = Json(static_cast<std::int64_t>(evals.size()));
  contract["divergent"] = Json(divergent);

  JsonObject root;
  root["bench"] = Json("serve_fastpath");
  root["smoke"] = Json(smoke);
  root["cold_cache"] = Json(std::move(cold_cache));
  root["latency_cache"] = Json(std::move(cache));
  root["serve"] = Json(std::move(serve_run));
  root["event_core"] = Json(std::move(event_core));
  root["obs_overhead"] = Json(std::move(obs_overhead));
  root["contract"] = Json(std::move(contract));
  root["checksum_sink"] = Json(sink);  // Keeps the timed loops honest.

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << Json(std::move(root)).Dump(2) << "\n";
  std::printf("\nWrote %s\n", out_path.c_str());

  if (divergent != 0) {
    std::fprintf(stderr,
                 "FAIL: estimator diverged from the functional simulator on "
                 "%lld evaluation(s)\n",
                 static_cast<long long>(divergent));
    return 1;
  }
  if (!obs_gate_ok) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.3fx exceeds the 5%% gate "
                 "(off %.3f ms, on %.3f ms)\n",
                 obs_ratio, obs_off_ms, obs_on_ms);
    return 1;
  }
  return 0;
}
