// NSFlow-Serve throughput sweep: batch size x replica count.
//
// Drives the serving engine with a saturating open-loop Poisson trace (the
// offered load is set well above pool capacity) and reports sustained
// throughput, tail latency, and mean utilization at every (max batch,
// replicas) point, plus the speedup over the unbatched single-replica
// baseline. Shows the two levers the serving engine adds on top of the
// paper's one-shot accelerator: batching amortizes the stationary-weight
// AXI traffic, replication multiplies service capacity.
#include <cstdio>

#include "common/table.h"
#include "serve/engine.h"
#include "serve/workload_registry.h"

int main() {
  using namespace nsflow;
  std::printf("=== NSFlow-Serve: throughput sweep (batch x replicas) ===\n\n");

  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("nvsa");
  // Every replica runs the compiled design, tuned for workload 0.
  const serve::ReplicaSpec replica{registry.compiled(0).design(), {}, 0};

  serve::ServeOptions base;
  base.duration_s = 1.0;
  base.max_wait_s = 10e-3;
  base.seed = 7;

  // Unbatched single-replica capacity anchors the speedup column.
  serve::ServerPool probe({replica}, registry.Dataflows());
  const double single_s = probe.BatchSeconds(0, 0, 1);
  const double single_rps = 1.0 / single_s;
  std::printf("Single-request latency: %.3f ms (%.1f rps unbatched)\n\n",
              single_s * 1e3, single_rps);

  TablePrinter table({"replicas", "max batch", "offered (rps)",
                      "throughput (rps)", "speedup", "p50 (ms)", "p99 (ms)",
                      "mean util"});
  for (const int replicas : {1, 2, 4, 8}) {
    for (const std::int64_t max_batch : {std::int64_t{1}, std::int64_t{4},
                                         std::int64_t{8}, std::int64_t{16}}) {
      serve::ServeOptions options = base;
      options.max_batch = max_batch;
      // Saturate: offer ~4x the optimistic fully-batched capacity.
      options.qps = 4.0 * single_rps * replicas * static_cast<double>(max_batch);

      const serve::ServeReport report = serve::RunSyntheticServe(
          registry,
          std::vector<serve::ReplicaSpec>(static_cast<std::size_t>(replicas),
                                          replica),
          {{"nvsa", 1.0}}, options);

      double util = 0.0;
      for (const double u : report.summary.replica_utilization) {
        util += u;
      }
      util /= static_cast<double>(replicas);

      table.AddRow({std::to_string(replicas),
                    std::to_string(max_batch),
                    TablePrinter::Num(options.qps, 0),
                    TablePrinter::Num(report.summary.throughput_rps, 1),
                    TablePrinter::Num(
                        report.summary.throughput_rps / single_rps, 2) +
                        "x",
                    TablePrinter::Num(report.summary.p50_ms, 1),
                    TablePrinter::Num(report.summary.p99_ms, 1),
                    TablePrinter::Percent(util)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Reading: at saturation, throughput scales ~linearly with replicas and "
      "sub-linearly\nwith batch size (batching amortizes weight AXI traffic, "
      "not array compute).\n");
  return 0;
}
