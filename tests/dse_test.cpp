// Tests for the two-phase DSE (Algorithm 1), design-space accounting
// (Table II), memory sizing, and the design-config JSON round trip.
#include "common/error.h"

#include <gtest/gtest.h>

#include <cstring>

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

/// The graphs the exactness tests sweep: the six built-ins, the Fig. 5
/// tasks, the Fig. 6 parametric family at three symbolic shares, and NVSA
/// with its symbolic side scaled down 10x and up 150x.
std::vector<OperatorGraph> SweepGraphs() {
  std::vector<OperatorGraph> graphs = {
      workloads::MakeMlp(),   workloads::MakeResnet18Classifier(),
      workloads::MakeNvsa(),  workloads::MakeMimonet(),
      workloads::MakeLvrf(),  workloads::MakePrae()};
  for (const workloads::TaskId task : workloads::kAllTasks) {
    graphs.push_back(workloads::MakeTask(task));
  }
  for (const double share : {0.05, 0.2, 0.5}) {
    graphs.push_back(workloads::MakeParametricNsai(share));
  }
  for (const double factor : {0.1, 150.0}) {
    graphs.push_back(workloads::ScaleSymbolic(workloads::MakeNvsa(), factor));
  }
  return graphs;
}

/// FNV-1a over the bytes of each value added.
class Fnv1a {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Every field of a DSE result except `evaluated_points`, which counts the
/// search's work rather than describing its answer.
void AddResult(Fnv1a& h, const DseResult& r) {
  const AcceleratorDesign& d = r.design;
  h.Add(d.array.height);
  h.Add(d.array.width);
  h.Add(d.array.count);
  h.Add(d.sequential_mode);
  h.Add(d.nl.size());
  for (const std::int64_t nl : d.nl) {
    h.Add(nl);
  }
  h.Add(d.nv.size());
  for (const std::int64_t nv : d.nv) {
    h.Add(nv);
  }
  h.Add(d.default_nl);
  h.Add(d.default_nv);
  h.Add(d.simd_width);
  h.Add(d.memory.mem_a1_bytes);
  h.Add(d.memory.mem_a2_bytes);
  h.Add(d.memory.mem_b_bytes);
  h.Add(d.memory.mem_c_bytes);
  h.Add(d.memory.cache_bytes);
  h.Add(d.precision.neural);
  h.Add(d.precision.symbolic);
  h.Add(d.clock_hz);
  h.Add(d.dram_bandwidth);
  h.Add(r.t_para_cycles);
  h.Add(r.t_seq_cycles);
  h.Add(r.phase1_cycles);
  h.Add(r.phase2_cycles);
  h.Add(r.vsa_mapping);
}

// The DSE's answers over a (graph x budget x column cap x Phase II) grid,
// pinned to the digest the exhaustive split scan produced: a faster search
// must return the same design, cycles and mapping for every point.
TEST(TwoPhaseDseTest, ResultsMatchThePinnedDigest) {
  Fnv1a h;
  int runs = 0;
  for (const OperatorGraph& graph : SweepGraphs()) {
    const DataflowGraph dfg(graph);
    for (const std::int64_t budget : {1024, 8192, 16384, 65536}) {
      for (const std::int64_t columns : {860, 64}) {
        for (const int iters : {0, 1, 4, 16, -1}) {
          DseOptions options;
          options.max_pes = budget;
          options.max_columns = columns;
          options.enable_phase2 = iters >= 0;  // -1: Phase II off.
          options.phase2_max_iters = iters >= 0 ? iters : 4;
          AddResult(h, RunTwoPhaseDse(dfg, options));
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 680);
  EXPECT_EQ(h.value(), 0x6864909846fbec02ull);
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
// regrouped sums must equal ParallelCycles with uniform allocation vectors
// at every (geometry, split) of the default grid, and SequentialCycles on
// every geometry, on every built-in.
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
      // Exact double equality: the contract is bit-identity.
      ASSERT_EQ(dse_internal::StaticSequentialCycles(cfg, shapes),
                SequentialCycles(cfg, dfg.layers(), dfg.vsa_ops()))
          << graph.workload_name() << " at " << cfg.height << "x" << cfg.width
          << "x" << cfg.count;
      for (std::int64_t nl = 1; nl < cfg.count; ++nl) {
        const std::vector<std::int64_t> nls(dfg.layers().size(), nl);
        const std::vector<std::int64_t> nvs(dfg.vsa_ops().size(),
                                            cfg.count - nl);
        ASSERT_EQ(
            std::max(dse_internal::StaticNnCycles(cfg, shapes, nl),
                     dse_internal::StaticVsaSums(cfg, shapes, cfg.count - nl)
                         .Best()),
            ParallelCycles(cfg, dfg.layers(), dfg.vsa_ops(), nls, nvs))
            << graph.workload_name() << " at " << cfg.height << "x" << cfg.width
            << "x" << cfg.count << " nl=" << nl;
        ++splits;
      }
    }
    EXPECT_GT(splits, 1000) << graph.workload_name();
  }
}

// The bisection must return what a scan of every split keeps: the first
// nl reaching the smallest t_para, bit for bit. Plateaus, where several
// splits tie, are where a search most easily returns a later one.
TEST(StaticSplitTest, BisectionMatchesTheLinearScan) {
  int geometries = 0;
  int plateaus = 0;
  for (const OperatorGraph& graph : SweepGraphs()) {
    const DataflowGraph dfg(graph);
    const auto shapes = dse_internal::CountShapes(dfg);
    for (const std::int64_t budget : {1024, 8192, 16384, 65536}) {
      for (const std::int64_t columns : {860, 64}) {
        DseOptions options;
        options.max_pes = budget;
        options.max_columns = columns;
        for (const ArrayConfig& cfg : dse_internal::Phase1Geometries(options)) {
          if (cfg.count < 2) {
            continue;
          }
          std::int64_t first = 0;
          std::int64_t last = 0;
          double best = 0.0;
          for (std::int64_t nl = 1; nl < cfg.count; ++nl) {
            const double t_para = std::max(
                dse_internal::StaticNnCycles(cfg, shapes, nl),
                dse_internal::StaticVsaSums(cfg, shapes, cfg.count - nl)
                    .Best());
            if (first == 0 || t_para < best) {
              first = nl;
              best = t_para;
            }
            if (t_para == best) {
              last = nl;
            }
          }
          const dse_internal::StaticSplit split =
              dse_internal::BestStaticSplit(cfg, shapes);
          ASSERT_EQ(split.nl, first)
              << graph.workload_name() << " at " << cfg.height << "x"
              << cfg.width << "x" << cfg.count;
          ASSERT_EQ(split.t_para, best)
              << graph.workload_name() << " at " << cfg.height << "x"
              << cfg.width << "x" << cfg.count;
          EXPECT_LE(split.evaluations, cfg.count - 1);
          ++geometries;
          plateaus += first != last ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(geometries, 3000);
  EXPECT_GT(plateaus, 1000);
}

TEST(TwoPhaseDseTest, NoFittingGeometryIsAnError) {
  const OperatorGraph graph = workloads::MakeNvsa();
  const DataflowGraph dfg(graph);
  DseOptions tiny = FastOptions();
  tiny.max_pes = 8;  // Below one 4x4 sub-array.
  EXPECT_THROW(RunTwoPhaseDse(dfg, tiny), InfeasibleError);
  DseOptions narrow = FastOptions();
  narrow.max_columns = 2;  // Below one 4-column sub-array.
  try {
    RunTwoPhaseDse(dfg, narrow);
    ADD_FAILURE() << "expected InfeasibleError";
  } catch (const InfeasibleError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_pes = 8192"), std::string::npos) << what;
    EXPECT_NE(what.find("max_columns = 2"), std::string::npos) << what;
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
