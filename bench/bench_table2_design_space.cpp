// Reproduces paper Table II — NSFlow design space and the two-phase pruning.
//
// Expected shape: the original cross-coupled space is ~10^300 for m = 10
// (max 2^m-PE sub-arrays) on an NVSA-scale dataflow graph; Phase I reduces
// it to ~10^3 points (every static split of every geometry) plus Iter x
// #layers for Phase II — a reduction of ~100 orders of magnitude. The DSE's
// own counter is its search's work, not the space: it bisects each
// geometry's split rather than pricing every point, so it sits below the
// Phase I space on purpose.
#include <cmath>
#include <cstdio>

#include "common/table.h"
#include "dse/design_space.h"
#include "dse/dse.h"
#include "workloads/builders.h"

int main() {
  using namespace nsflow;
  std::printf("=== NSFlow reproduction: Table II design space ===\n\n");

  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);

  TablePrinter table({"m (max PEs = 2^m)", "HW points", "HW pruned",
                      "log10 original", "log10 Phase I", "log10 Phase II",
                      "log10 reduction"});
  for (const int m : {8, 10, 12, 14}) {
    const auto size = CountDesignSpace(dfg, m, /*phase2_iters=*/4);
    table.AddRow({std::to_string(m),
                  std::to_string(size.hw_points_original),
                  std::to_string(size.hw_points_pruned),
                  TablePrinter::Num(size.log10_original, 1),
                  TablePrinter::Num(size.log10_phase1, 1),
                  TablePrinter::Num(size.log10_phase2, 1),
                  TablePrinter::Num(size.log10_reduction, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // The search's work beside the space it covers at the same budget.
  const DseOptions options;
  const int m = static_cast<int>(std::log2(options.max_pes));
  const DseResult result = RunTwoPhaseDse(dfg, options);
  const auto space = CountDesignSpace(dfg, m, 4);
  std::printf(
      "DSE search work on NVSA at m = %d: %lld model evaluations (space: "
      "~10^%.1f Phase I points, ~10^%d original points)\n",
      m, static_cast<long long>(result.evaluated_points), space.log10_phase1,
      static_cast<int>(space.log10_original));
  std::printf("Paper anchor: 10^300 original -> ~10^3 after phasing "
              "(10^100x reduction claim; see Table II).\n");
  return 0;
}
