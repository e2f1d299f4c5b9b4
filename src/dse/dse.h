// Two-phase design-space exploration — paper Algorithm 1 and Sec. V-C.
//
// Phase I assumes a *static* partition (all Nl[i] = N̄l, all Nv[j] = N̄v =
// N − N̄l) and searches the pruned (H, W) grid with N = ⌊M/(H·W)⌋, keeping
// the configuration minimizing t_para = max(t_nn, t_vsa). On one geometry
// t_nn never rises and t_vsa never falls as N̄l grows, so bisection finds
// the split a scan of all N − 1 would keep (the first minimum) in
// O(log N) evaluations. Phase I also evaluates the sequential mode (every
// node owns the whole array, Eq. line 12) and falls back to it when faster
// (line 14) — which is what happens when the workload has no symbolic
// component worth co-scheduling.
//
// Phase II fine-tunes the mapping around the static partition: for each NN
// layer i it locates the VSA span [j′, j″] concurrent with that layer in the
// fused loop schedule and moves one sub-array between the NN and VSA sides,
// in whichever direction reduces the bottleneck, keeping the best mapping
// seen. Search granularity is one NN layer (VSA kernels are smaller and fit
// arbitrary shapes, Sec. V-C).
//
// After the array design, the DAG sizes the memory blocks (MA1 = max filter
// in Rl, MA2 = max node in Rv, cache = 2·(MA+MB+MC)) and picks the smallest
// SIMD width whose latency hides under the array's busy time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/dataflow_graph.h"
#include "model/accel_model.h"
#include "model/analytical.h"

namespace nsflow {

struct DseOptions {
  /// Max PEs M, from the FPGA resource budget (Table II uses M = 2^m). The
  /// default corresponds to a U250 with the INT8 DSP packing of [30]
  /// (two MACs per DSP48 slice pair).
  std::int64_t max_pes = 16384;

  /// Candidate sub-array heights/widths (powers of two), further pruned by
  /// the aspect-ratio rule 1/4 <= H/W <= 16.
  std::vector<std::int64_t> range_h = {4, 8, 16, 32, 64, 128};
  std::vector<std::int64_t> range_w = {4, 8, 16, 32, 64, 128};

  /// BRAM banking constraint: every sub-array column needs its own
  /// (double-buffered) stationary/streaming ports, so total columns
  /// (N x W) are bounded by the device's block-RAM inventory. The default
  /// corresponds to ~80% of a U250's BRAM18 budget at 5 banks per column.
  std::int64_t max_columns = 860;

  int phase2_max_iters = 4;      // Iter_max.
  bool enable_phase1 = true;     // Ablation: false pins `forced_array`.
  bool enable_phase2 = true;     // Ablation: false keeps the static partition.

  /// Used when enable_phase1 is false (e.g. the Fig. 6 "w/o Phase I" arm
  /// pins a monolithic 128x64 array).
  std::optional<ArrayConfig> forced_array;

  /// Deployment parameters forwarded into the produced design.
  double clock_hz = 272e6;
  double dram_bandwidth = 77e9;  // Four DDR4-2400 channels on the U250.
  std::vector<std::int64_t> simd_widths = {16, 32, 64, 128, 256, 512, 1024};

  /// Extra stationary storage the workload needs resident in MemA2 (cleanup
  /// dictionaries / codebooks), in bytes.
  double dictionary_bytes = 0.0;
};

struct DseResult {
  AcceleratorDesign design;
  double t_para_cycles = 0.0;     // Best fused-mode cycles (Eq. max form).
  double t_seq_cycles = 0.0;      // Best sequential-mode cycles.
  double phase1_cycles = 0.0;     // t_para with the static partition.
  double phase2_cycles = 0.0;     // t_para after fine-tuning.
  VsaMapping vsa_mapping = VsaMapping::kTemporal;
  /// Cycle-model evaluations performed: one per geometry's sequential
  /// price, per static split Phase I's bisection probes, and per Phase II
  /// step. It counts the search's work, not the design space's size.
  std::int64_t evaluated_points = 0;

  /// Relative improvement of Phase II over Phase I (Fig. 6 reports this
  /// reaching ~44% when NN and symbolic work are balanced).
  double Phase2Gain() const {
    return phase1_cycles > 0.0
               ? (phase1_cycles - phase2_cycles) / phase1_cycles
               : 0.0;
  }
};

/// Run the full two-phase DSE for one workload dataflow graph. Throws
/// `InfeasibleError` when no geometry fits `max_pes` and `max_columns`.
DseResult RunTwoPhaseDse(const DataflowGraph& dfg,
                         const DseOptions& options = {});

namespace dse_internal {

/// Memory sizing per Sec. V-C (exposed for unit tests): MA1/MA2/MB/MC are
/// double-buffered and rounded up to 18 KiB BRAM blocks; the URAM cache is
/// 2·(MA1 + MA2 + MB + MC) rounded to 288 KiB blocks.
MemoryConfig SizeMemory(const DataflowGraph& dfg, const ArrayConfig& array,
                        double dictionary_bytes);

/// Smallest SIMD width (from `widths`) whose cycles hide under
/// `array_cycles`; falls back to the largest width if none does.
std::int64_t SizeSimd(double total_elems, double array_cycles,
                      const std::vector<std::int64_t>& widths);

/// Phase I's candidate geometries: the (H, W) grid pruned by aspect ratio,
/// N = ⌊M/(H·W)⌋ capped by the BRAM column budget, N >= 1 (Algorithm 1,
/// line 3) — or the forced array alone when Phase I is disabled.
std::vector<ArrayConfig> Phase1Geometries(const DseOptions& options);

/// A dataflow graph's distinct layer GEMM shapes and VSA node shapes, each
/// with how many nodes share it, in first-seen order. A static partition
/// gives every layer one sub-array count and every VSA node another, so
/// nodes of equal shape cost the same.
struct ShapeCounts {
  std::vector<std::pair<GemmDims, std::int64_t>> layers;
  std::vector<std::pair<VsaDims, std::int64_t>> vsa;
};
ShapeCounts CountShapes(const DataflowGraph& dfg);

/// Phase I's t_nn with every layer on `nl` sub-arrays, summed as
/// Σ multiplicity × per-shape LayerCycles. Every term is an integer-valued
/// double and every partial sum stays far below 2^53 cycles (about a year
/// at 272 MHz), so regrouping the node sums by shape is exact: this equals
/// NnTotalCycles with a uniform allocation bit for bit.
double StaticNnCycles(const ArrayConfig& cfg, const ShapeCounts& shapes,
                      std::int64_t nl);

/// Both VSA mappings' totals with every VSA node on `nv` sub-arrays, summed
/// by shape as StaticNnCycles is; Eq. (5)'s t_vsa is the smaller one.
struct VsaSums {
  double temporal = 0.0;
  double spatial = 0.0;
  double Best() const { return std::min(temporal, spatial); }
};
VsaSums StaticVsaSums(const ArrayConfig& cfg, const ShapeCounts& shapes,
                      std::int64_t nv);

/// Algorithm 1 line 12's sequential mode priced by shape: every layer and
/// every VSA node on all N sub-arrays. Equals SequentialCycles bit for bit.
double StaticSequentialCycles(const ArrayConfig& cfg,
                              const ShapeCounts& shapes);

/// The static split a scan of N̄l = 1 … N−1 keeps on one geometry: the
/// first N̄l minimizing t_para = max(StaticNnCycles(N̄l),
/// StaticVsaSums(N − N̄l).Best()), found by bisection. Needs N >= 2.
struct StaticSplit {
  std::int64_t nl = 0;
  double t_para = 0.0;
  std::int64_t evaluations = 0;  // Splits priced.
};
StaticSplit BestStaticSplit(const ArrayConfig& cfg, const ShapeCounts& shapes);

}  // namespace dse_internal
}  // namespace nsflow
