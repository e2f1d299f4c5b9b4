// NSFlow framework facade — the end-to-end flow of paper Fig. 2.
//
//   workload trace (.json / OperatorGraph)
//     └─ frontend: dataflow graph -> two-phase DSE -> design config + host code
//          └─ backend: parameterized accelerator (cycle-level simulator here;
//             RTL parameter header for a real Vivado flow) + XRT-like runtime
//
// `Compiler::Compile` runs the frontend's search (dataflow graph + DSE);
// `Deploy` instantiates the simulated accelerator from the compiled design.
// This is the public entry point examples and benches use. The deployment
// artifacts are rendered from a compiled design only where they are
// written: `EmitDesignConfig` (dse/design_config.h), `EmitHostCode`
// (nsflow/host_codegen.h), `EmitParameterHeader` and `EmitTopLevel`
// (fpga/rtl_emitter.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dse/dse.h"
#include "fpga/resource_model.h"
#include "graph/dataflow_graph.h"
#include "graph/operator_graph.h"
#include "runtime/host_runtime.h"

namespace nsflow {

/// The frontend's search result for one workload: the graphs and the DSE
/// winner every artifact emitter renders from.
struct CompiledDesign {
  std::unique_ptr<OperatorGraph> graph;     // The ingested workload.
  std::unique_ptr<DataflowGraph> dataflow;  // Fig. 4 graph (references graph).
  DseResult dse;                            // Algorithm 1 output.

  const AcceleratorDesign& design() const { return dse.design; }

  /// Predicted end-to-end latency (closed-form model), seconds.
  double PredictedSeconds() const;
};

struct CompileOptions {
  DseOptions dse;
  /// Reserve MemA2 headroom for cleanup dictionaries resident on-chip.
  double dictionary_bytes = 512.0 * 1024.0;
};

class Compiler {
 public:
  explicit Compiler(CompileOptions options = {}) : options_(std::move(options)) {}

  /// Frontend on an already-ingested operator graph.
  CompiledDesign Compile(OperatorGraph graph) const;

  /// Frontend from a JSON program trace (Fig. 2's entry artifact).
  CompiledDesign CompileJsonTrace(const std::string& trace_json) const;

 private:
  CompileOptions options_;
};

/// Instantiate the simulated accelerator for a compiled design.
std::unique_ptr<runtime::Accelerator> Deploy(const CompiledDesign& compiled);

/// One point on the (PE budget, latency) pareto frontier.
struct ParetoPoint {
  AcceleratorDesign design;
  double predicted_seconds = 0.0;  // End-to-end workload latency.
  std::int64_t pes = 0;            // H * W * N of the chosen array.
  /// The `max_pes` DSE budget that produced this design. Re-running the
  /// (deterministic) DSE with this budget reproduces `design` bit-exactly —
  /// the capacity planner records it so a serialized PoolPlan can rebuild
  /// its designs instead of serializing them.
  std::int64_t pe_budget = 0;
};

/// Sweep the DSE across shrinking PE budgets (halving from
/// `base.max_pes` down to `min_pes`) and keep the designs on the
/// (PEs, latency) pareto frontier, largest budget first. Serving pools use
/// this to deploy heterogeneous replica sets: a few full-budget low-latency
/// replicas plus smaller ones that trade latency for FPGA area.
std::vector<ParetoPoint> ParetoDesigns(const DataflowGraph& dfg,
                                       DseOptions base, int max_points,
                                       std::int64_t min_pes = 1024);

/// FPGA utilization of a compiled design on a device (Table III columns).
ResourceReport Report(const CompiledDesign& compiled, const FpgaDevice& device);

}  // namespace nsflow
