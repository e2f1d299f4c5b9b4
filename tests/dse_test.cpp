// Tests for the two-phase DSE (Algorithm 1), design-space accounting
// (Table II), memory sizing, and the design-config JSON round trip.
#include "common/error.h"

#include <gtest/gtest.h>

#include "dse/design_config.h"
#include "dse/design_space.h"
#include "dse/dse.h"
#include "model/accel_model.h"
#include "workloads/builders.h"

namespace nsflow {
namespace {

DseOptions FastOptions() {
  DseOptions options;
  options.max_pes = 8192;
  return options;
}

TEST(DesignSpaceTest, OriginalSpaceIsAstronomical) {
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  const auto size = CountDesignSpace(dfg, /*m=*/10, /*phase2_iters=*/4);
  // Paper Table II: ~10^300 for m=10 on an NVSA-scale graph.
  EXPECT_GT(size.log10_original, 200.0);
  EXPECT_LT(size.log10_original, 400.0);
}

TEST(DesignSpaceTest, PrunedSpaceIsTiny) {
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  const auto size = CountDesignSpace(dfg, 10, 4);
  // Phase I ~10^3, Phase II = iters x layers.
  EXPECT_LT(size.log10_phase1, 6.0);
  EXPECT_LT(size.log10_phase2, 3.0);
  // Reduction of ~100 orders of magnitude (paper: "10^100x").
  EXPECT_GT(size.log10_reduction, 100.0);
  EXPECT_LT(size.hw_points_pruned, size.hw_points_original);
}

TEST(TwoPhaseDseTest, ProducesFeasibleDesign) {
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  const DseResult result = RunTwoPhaseDse(dfg, FastOptions());

  const auto& d = result.design;
  EXPECT_GE(d.array.height, 4);
  EXPECT_GE(d.array.width, 4);
  EXPECT_GE(d.array.count, 1);
  EXPECT_LE(d.array.TotalPes(), 8192);

  // Aspect-ratio pruning respected.
  const double aspect =
      static_cast<double>(d.array.height) / static_cast<double>(d.array.width);
  EXPECT_GE(aspect, 0.25);
  EXPECT_LE(aspect, 16.0);

  if (!d.sequential_mode) {
    ASSERT_EQ(d.nl.size(), dfg.layers().size());
    ASSERT_EQ(d.nv.size(), dfg.vsa_ops().size());
    for (const auto nl : d.nl) {
      EXPECT_GE(nl, 1);
      EXPECT_LT(nl, d.array.count);
    }
    for (const auto nv : d.nv) {
      EXPECT_GE(nv, 1);
      EXPECT_LT(nv, d.array.count);
    }
  }
  EXPECT_GT(result.evaluated_points, 100);
}

TEST(TwoPhaseDseTest, NvsaChoosesParallelMode) {
  // NVSA has a real symbolic lane: folding must beat sequential execution.
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  const DseResult result = RunTwoPhaseDse(dfg, FastOptions());
  EXPECT_FALSE(result.design.sequential_mode);
  EXPECT_LT(result.t_para_cycles, result.t_seq_cycles);
}

TEST(TwoPhaseDseTest, PureNeuralFallsBackToSequential) {
  // Algorithm 1 line 14: with no symbolic work, parallel mode is pointless.
  const OperatorGraph graph = workloads::MakeParametricNsai(0.0);
  const DataflowGraph dfg(graph);
  const DseResult result = RunTwoPhaseDse(dfg, FastOptions());
  EXPECT_TRUE(result.design.sequential_mode);
}

TEST(TwoPhaseDseTest, PhaseTwoNeverHurts) {
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);

  DseOptions with = FastOptions();
  DseOptions without = FastOptions();
  without.enable_phase2 = false;

  const DseResult tuned = RunTwoPhaseDse(dfg, with);
  const DseResult static_only = RunTwoPhaseDse(dfg, without);

  EXPECT_LE(tuned.t_para_cycles, static_only.t_para_cycles);
  EXPECT_DOUBLE_EQ(static_only.Phase2Gain(), 0.0);
  EXPECT_GE(tuned.Phase2Gain(), 0.0);
}

TEST(TwoPhaseDseTest, PhaseTwoGainPeaksWhenBalanced) {
  // Fig. 6: the Phase II gain is largest when NN and symbolic work are
  // comparable (symbolic memory share around 20%), and small at the
  // extremes. We check balanced > extreme rather than an absolute number.
  const auto gain_at = [](double fraction) {
    const OperatorGraph graph = workloads::MakeParametricNsai(fraction);
    const DataflowGraph dfg(graph);
    DseOptions options;
    options.max_pes = 8192;
    const DseResult result = RunTwoPhaseDse(dfg, options);
    return result.design.sequential_mode ? 0.0 : result.Phase2Gain();
  };
  const double balanced = gain_at(0.2);
  const double tiny = gain_at(0.02);
  EXPECT_GE(balanced, tiny);
}

TEST(TwoPhaseDseTest, ForcedArrayAblation) {
  // The Fig. 6 "w/o Phase I" arm: a monolithic 128x64 array, sequential.
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  DseOptions options;
  options.enable_phase1 = false;
  options.forced_array = ArrayConfig{128, 64, 1};
  const DseResult forced = RunTwoPhaseDse(dfg, options);
  EXPECT_EQ(forced.design.array.height, 128);
  EXPECT_EQ(forced.design.array.width, 64);
  EXPECT_TRUE(forced.design.sequential_mode);  // One sub-array can't fold.

  // And it must be slower than the full flow on a symbolic-heavy workload.
  const DseResult full = RunTwoPhaseDse(dfg, FastOptions());
  EXPECT_LT(full.t_para_cycles, forced.t_para_cycles);
}

TEST(TwoPhaseDseTest, MissingForcedArrayIsAnError) {
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  DseOptions options;
  options.enable_phase1 = false;
  EXPECT_THROW(RunTwoPhaseDse(dfg, options), CheckError);
}

TEST(MemorySizingTest, FollowsSectionVC) {
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  const auto mem =
      dse_internal::SizeMemory(dfg, ArrayConfig{32, 16, 16}, 512.0 * 1024.0);

  // MA1 holds the double-buffered max filter.
  EXPECT_GE(mem.mem_a1_bytes, 2.0 * dfg.MaxLayerWeightBytes());
  // MA2 holds the larger of max VSA node and the dictionary, doubled.
  EXPECT_GE(mem.mem_a2_bytes,
            2.0 * std::max(dfg.MaxVsaNodeBytes(), 512.0 * 1024.0));
  // Cache = 2 x (MA + MB + MC), rounded to URAM blocks.
  const double sram = mem.mem_a1_bytes + mem.mem_a2_bytes + mem.mem_b_bytes +
                      mem.mem_c_bytes;
  EXPECT_GE(mem.cache_bytes, 2.0 * sram - 288.0 * 1024.0);
  // Everything is BRAM/URAM-block aligned.
  EXPECT_EQ(static_cast<std::int64_t>(mem.mem_a1_bytes) % (18 * 1024), 0);
  EXPECT_EQ(static_cast<std::int64_t>(mem.cache_bytes) % (288 * 1024), 0);
}

TEST(SimdSizingTest, SmallestWidthThatHides) {
  const std::vector<std::int64_t> widths = {16, 32, 64, 128, 256};
  // 10k elements, array busy 1000 cycles: need ceil(10000/w) <= ~1000 -> 16.
  EXPECT_EQ(dse_internal::SizeSimd(10000.0, 1000.0, widths), 16);
  // Array busy only 100 cycles: need width 128 (10000/128 + 8 = 86 <= 100).
  EXPECT_EQ(dse_internal::SizeSimd(10000.0, 100.0, widths), 128);
  // Nothing hides: fall back to the largest.
  EXPECT_EQ(dse_internal::SizeSimd(1e9, 10.0, widths), 256);
}

// Phase I sums over shape multiplicities instead of node by node; the
// regrouped sum must equal ParallelCycles with uniform allocation vectors
// at every (geometry, split) of the default grid, on every built-in.
TEST(StaticParallelCyclesTest, EqualsParallelCyclesOnTheDefaultGrid) {
  const std::vector<OperatorGraph> graphs = {
      workloads::MakeMlp(),   workloads::MakeResnet18Classifier(),
      workloads::MakeNvsa(),  workloads::MakeMimonet(),
      workloads::MakeLvrf(),  workloads::MakePrae()};
  for (const OperatorGraph& graph : graphs) {
    const DataflowGraph dfg(graph);
    const auto shapes = dse_internal::CountShapes(dfg);
    std::int64_t layers = 0;
    for (const auto& entry : shapes.layers) {
      layers += entry.second;
    }
    std::int64_t nodes = 0;
    for (const auto& entry : shapes.vsa) {
      nodes += entry.second;
    }
    ASSERT_EQ(layers, static_cast<std::int64_t>(dfg.layers().size()));
    ASSERT_EQ(nodes, static_cast<std::int64_t>(dfg.vsa_ops().size()));
    int splits = 0;
    for (const ArrayConfig& cfg : dse_internal::Phase1Geometries({})) {
      for (std::int64_t nl = 1; nl < cfg.count; ++nl) {
        const std::vector<std::int64_t> nls(dfg.layers().size(), nl);
        const std::vector<std::int64_t> nvs(dfg.vsa_ops().size(),
                                            cfg.count - nl);
        // Exact double equality: the contract is bit-identity.
        ASSERT_EQ(dse_internal::StaticParallelCycles(cfg, shapes, nl,
                                                     cfg.count - nl),
                  ParallelCycles(cfg, dfg.layers(), dfg.vsa_ops(), nls, nvs))
            << graph.workload_name() << " at " << cfg.height << "x" << cfg.width
            << "x" << cfg.count << " nl=" << nl;
        ++splits;
      }
    }
    EXPECT_GT(splits, 1000) << graph.workload_name();
  }
}

TEST(DesignConfigTest, JsonRoundTrip) {
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  const DseResult result = RunTwoPhaseDse(dfg, FastOptions());

  const std::string json = EmitDesignConfig(result.design, "NVSA");
  const AcceleratorDesign parsed = ParseDesignConfig(json);

  EXPECT_EQ(parsed.array, result.design.array);
  EXPECT_EQ(parsed.sequential_mode, result.design.sequential_mode);
  EXPECT_EQ(parsed.nl, result.design.nl);
  EXPECT_EQ(parsed.nv, result.design.nv);
  EXPECT_EQ(parsed.simd_width, result.design.simd_width);
  EXPECT_DOUBLE_EQ(parsed.memory.cache_bytes, result.design.memory.cache_bytes);
  EXPECT_EQ(parsed.precision, result.design.precision);
  EXPECT_DOUBLE_EQ(parsed.clock_hz, result.design.clock_hz);
}

class DsePerWorkloadTest
    : public ::testing::TestWithParam<workloads::TaskId> {};

TEST_P(DsePerWorkloadTest, EveryTaskGetsAValidDesign) {
  const OperatorGraph graph = workloads::MakeTask(GetParam());
  const DataflowGraph dfg(graph);
  const DseResult result = RunTwoPhaseDse(dfg, FastOptions());
  EXPECT_GT(result.t_para_cycles, 0.0);
  EXPECT_LE(result.design.array.TotalPes(), 8192);
  // The produced design must be evaluable end to end.
  const double seconds = EndToEndSeconds(dfg, result.design);
  EXPECT_GT(seconds, 0.0);
  EXPECT_LT(seconds, 10.0);  // Real-time-ish on all tasks (paper's goal).
}

INSTANTIATE_TEST_SUITE_P(AllTasks, DsePerWorkloadTest,
                         ::testing::ValuesIn(workloads::kAllTasks),
                         [](const auto& info) {
                           std::string name = workloads::TaskName(info.param);
                           for (auto& c : name) {
                             if (c == '/' || c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace nsflow
