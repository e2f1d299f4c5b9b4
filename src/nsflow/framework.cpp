#include "nsflow/framework.h"

#include <algorithm>
#include <limits>

#include "arch/fastpath.h"
#include "common/error.h"
#include "graph/trace.h"

namespace nsflow {

double CompiledDesign::PredictedSeconds() const {
  return EndToEndSeconds(*dataflow, dse.design);
}

CompiledDesign Compiler::Compile(OperatorGraph graph) const {
  CompiledDesign compiled;
  compiled.graph = std::make_unique<OperatorGraph>(std::move(graph));
  compiled.dataflow = std::make_unique<DataflowGraph>(*compiled.graph);

  DseOptions dse_options = options_.dse;
  dse_options.dictionary_bytes = options_.dictionary_bytes;
  compiled.dse = RunTwoPhaseDse(*compiled.dataflow, dse_options);
  return compiled;
}

CompiledDesign Compiler::CompileJsonTrace(const std::string& trace_json) const {
  return Compile(ParseJsonTrace(trace_json));
}

std::vector<ParetoPoint> ParetoDesigns(const DataflowGraph& dfg,
                                       DseOptions base, int max_points,
                                       std::int64_t min_pes) {
  NSF_CHECK_MSG(max_points >= 1, "need at least one pareto point");
  NSF_CHECK_MSG(min_pes >= 1, "min_pes must be positive");

  // Always evaluate the base budget, even when it sits below min_pes —
  // callers must get a non-empty frontier for any valid DSE options.
  min_pes = std::min(min_pes, base.max_pes);
  std::vector<ParetoPoint> candidates;
  for (std::int64_t budget = base.max_pes;
       budget >= min_pes &&
       static_cast<int>(candidates.size()) < 2 * max_points;
       budget /= 2) {
    DseOptions options = base;
    options.max_pes = budget;
    ParetoPoint point;
    point.design = RunTwoPhaseDse(dfg, options).design;
    point.pe_budget = budget;
    point.pes = point.design.array.height * point.design.array.width *
                point.design.array.count;
    // Fast-path estimate: the exact seconds a deployed replica's cycle
    // model reports (serve::ServerPool::BatchSeconds at batch 1), so the
    // frontier's predicted latency and the serving pool's latency cache
    // agree to the bit.
    point.predicted_seconds = arch::EstimateWorkloadSeconds(point.design, dfg);
    candidates.push_back(std::move(point));
  }

  // Frontier filter: keep only non-dominated points (no other candidate has
  // both fewer-or-equal PEs and lower-or-equal latency); ties on PEs keep
  // the faster design. Result is sorted largest budget first, so PEs
  // strictly decrease and latency strictly increases along it.
  std::sort(candidates.begin(), candidates.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              return a.pes != b.pes ? a.pes < b.pes
                                    : a.predicted_seconds < b.predicted_seconds;
            });
  std::vector<ParetoPoint> frontier;
  double best_seconds = std::numeric_limits<double>::infinity();
  // Ascending PEs: a point survives only by beating every smaller design's
  // latency, which is exactly pareto optimality on this ordering.
  for (auto& candidate : candidates) {
    if (candidate.predicted_seconds < best_seconds) {
      best_seconds = candidate.predicted_seconds;
      frontier.push_back(std::move(candidate));
    }
  }
  std::reverse(frontier.begin(), frontier.end());
  if (static_cast<int>(frontier.size()) > max_points) {
    frontier.resize(static_cast<std::size_t>(max_points));
  }
  return frontier;
}

std::unique_ptr<runtime::Accelerator> Deploy(const CompiledDesign& compiled) {
  return std::make_unique<runtime::Accelerator>(compiled.dse.design,
                                                *compiled.dataflow);
}

ResourceReport Report(const CompiledDesign& compiled,
                      const FpgaDevice& device) {
  return EstimateResources(compiled.dse.design, device);
}

}  // namespace nsflow
