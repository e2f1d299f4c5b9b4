#include "dse/dse.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "common/math_util.h"

namespace nsflow {
namespace dse_internal {

namespace {

/// Round a byte count up to whole 18 KiB BRAM blocks.
double RoundToBram(double bytes) {
  constexpr double kBramBytes = 18.0 * 1024.0;
  return std::ceil(bytes / kBramBytes) * kBramBytes;
}

/// Round a byte count up to whole 288 KiB URAM blocks.
double RoundToUram(double bytes) {
  constexpr double kUramBytes = 288.0 * 1024.0;
  return std::ceil(bytes / kUramBytes) * kUramBytes;
}

}  // namespace

MemoryConfig SizeMemory(const DataflowGraph& dfg, const ArrayConfig& array,
                        double dictionary_bytes) {
  MemoryConfig mem;

  // MA1 = max filter size in Rl (Sec. V-C), double-buffered for seamless
  // load/compute overlap (Sec. IV-C: "all double-buffered memories").
  mem.mem_a1_bytes = RoundToBram(2.0 * dfg.MaxLayerWeightBytes());

  // MA2 = max node size in Rv, plus resident cleanup dictionaries.
  mem.mem_a2_bytes =
      RoundToBram(2.0 * std::max(dfg.MaxVsaNodeBytes(), dictionary_bytes));

  // MemB: double-buffered im2col stripe of the IFMAP — d2 rows by a column
  // tile of up to 1024 output positions (beyond that the stripe is streamed).
  double max_stripe = 0.0;
  for (const auto& layer : dfg.layers()) {
    const double tile_cols =
        static_cast<double>(std::min<std::int64_t>(layer.gemm.k, 1024));
    const double stripe = static_cast<double>(layer.gemm.n) * tile_cols *
                          (layer.weight_bytes /
                           std::max(1.0, static_cast<double>(layer.gemm.m) *
                                             static_cast<double>(layer.gemm.n)));
    max_stripe = std::max(max_stripe, stripe);
  }
  mem.mem_b_bytes = RoundToBram(2.0 * max_stripe);

  // MemC: outputs of the array and the SIMD unit — the larger of the biggest
  // layer-output tile (d1 x column tile) and the biggest VSA node output.
  double max_out = 0.0;
  for (const auto& layer : dfg.layers()) {
    const double tile_cols =
        static_cast<double>(std::min<std::int64_t>(layer.gemm.k, 1024));
    const double bytes_per_elem =
        layer.output_bytes /
        std::max(1.0, static_cast<double>(layer.gemm.m) *
                          static_cast<double>(layer.gemm.k));
    max_out = std::max(max_out,
                       static_cast<double>(layer.gemm.m) * tile_cols *
                           bytes_per_elem);
  }
  for (const auto& v : dfg.vsa_ops()) {
    max_out = std::max(max_out, v.bytes / 2.0);  // Output of one node.
  }
  mem.mem_c_bytes = RoundToBram(2.0 * max_out);

  // On-chip cache (URAM): 2 x (MA + MB + MC) per Sec. V-C.
  mem.cache_bytes = RoundToUram(2.0 * (mem.mem_a1_bytes + mem.mem_a2_bytes +
                                       mem.mem_b_bytes + mem.mem_c_bytes));
  (void)array;  // Geometry does not change block sizing, only block banking.
  return mem;
}

std::int64_t SizeSimd(double total_elems, double array_cycles,
                      const std::vector<std::int64_t>& widths) {
  NSF_CHECK_MSG(!widths.empty(), "need at least one SIMD width candidate");
  std::vector<std::int64_t> sorted = widths;
  std::sort(sorted.begin(), sorted.end());
  for (const auto width : sorted) {
    if (SimdCycles(total_elems, width) <= array_cycles) {
      return width;
    }
  }
  return sorted.back();
}

std::vector<ArrayConfig> Phase1Geometries(const DseOptions& options) {
  if (!options.enable_phase1) {
    NSF_CHECK_MSG(options.forced_array.has_value(),
                  "Phase I disabled: a forced array config is required");
    return {*options.forced_array};
  }
  std::vector<ArrayConfig> geometries;
  for (const auto h : options.range_h) {
    for (const auto w : options.range_w) {
      // Aspect-ratio pruning (Table II): 1/4 <= H/W <= 16.
      const double aspect = static_cast<double>(h) / static_cast<double>(w);
      if (aspect < 0.25 || aspect > 16.0) {
        continue;
      }
      std::int64_t n = options.max_pes / (h * w);  // Line 3.
      // BRAM banking prune: N x W columns must fit the port budget.
      if (options.max_columns > 0) {
        n = std::min(n, options.max_columns / w);
      }
      if (n < 1) {
        continue;
      }
      geometries.push_back(ArrayConfig{h, w, n});
    }
  }
  return geometries;
}

ShapeCounts CountShapes(const DataflowGraph& dfg) {
  ShapeCounts shapes;
  const auto tally = [](auto& counts, const auto& shape) {
    for (auto& [seen, count] : counts) {
      if (seen == shape) {
        ++count;
        return;
      }
    }
    counts.emplace_back(shape, 1);
  };
  for (const LayerNode& layer : dfg.layers()) {
    tally(shapes.layers, layer.gemm);
  }
  for (const VsaNode& node : dfg.vsa_ops()) {
    tally(shapes.vsa, node.vsa);
  }
  return shapes;
}

double StaticNnCycles(const ArrayConfig& cfg, const ShapeCounts& shapes,
                      std::int64_t nl) {
  // Exact regrouping: see the premise in dse.h.
  double t_nn = 0.0;
  for (const auto& [gemm, count] : shapes.layers) {
    t_nn += static_cast<double>(count) * LayerCycles(cfg, nl, gemm);
  }
  return t_nn;
}

VsaSums StaticVsaSums(const ArrayConfig& cfg, const ShapeCounts& shapes,
                      std::int64_t nv) {
  VsaSums sums;
  for (const auto& [vsa, count] : shapes.vsa) {
    sums.temporal +=
        static_cast<double>(count) * VsaTemporalCycles(cfg, nv, vsa);
    sums.spatial +=
        static_cast<double>(count) * VsaSpatialCycles(cfg, nv, vsa);
  }
  return sums;
}

double StaticSequentialCycles(const ArrayConfig& cfg,
                              const ShapeCounts& shapes) {
  return StaticNnCycles(cfg, shapes, cfg.count) +
         StaticVsaSums(cfg, shapes, cfg.count).Best();
}

StaticSplit BestStaticSplit(const ArrayConfig& cfg, const ShapeCounts& shapes) {
  const std::int64_t n = cfg.count;
  NSF_CHECK_MSG(n >= 2, "a static split needs at least two sub-arrays");
  // t_para(nl) = max(f(nl), g(nl)), f = t_nn and g = t_vsa at nv = N − nl.
  // Giving the layers more sub-arrays never slows them, so f is
  // non-increasing in nl and g non-decreasing. Every term is a
  // ceiling-division step function times a positive count, and rounded
  // products, sums and min are monotone too, so the computed f and g are
  // as monotone as the exact ones.
  //
  // c = the smallest nl with f(nl) <= g(nl), or N when there is none. On
  // [c, N−1] t_para = g, smallest at c; on [1, c−1] it is f, smallest at
  // c − 1. Both bisections keep their predicate true at `hi`.
  StaticSplit split;
  std::int64_t lo = 1;
  std::int64_t hi = n;
  double g_at_c = 0.0;      // g(c), priced when c < N.
  double f_before_c = 0.0;  // f(c − 1), priced when c > 1.
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    const double f = StaticNnCycles(cfg, shapes, mid);
    const double g = StaticVsaSums(cfg, shapes, n - mid).Best();
    ++split.evaluations;
    if (f <= g) {
      hi = mid;
      g_at_c = g;
    } else {
      lo = mid + 1;
      f_before_c = f;
    }
  }
  const std::int64_t c = lo;
  if (c < n && (c == 1 || g_at_c < f_before_c)) {
    split.nl = c;
    split.t_para = g_at_c;
    return split;
  }
  // The left candidate wins ties (the scan keeps the first minimum): the
  // first occurrence of f(c − 1) on f's non-increasing run.
  lo = 1;
  hi = c - 1;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    ++split.evaluations;
    if (StaticNnCycles(cfg, shapes, mid) <= f_before_c) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  split.nl = lo;
  split.t_para = f_before_c;
  return split;
}

}  // namespace dse_internal

namespace {

/// One Phase I candidate: static partition N̄l/N̄v on an (H, W, N) geometry.
struct Phase1Candidate {
  ArrayConfig array;
  std::int64_t static_nl = 0;
  double t_para = 0.0;
};

}  // namespace

DseResult RunTwoPhaseDse(const DataflowGraph& dfg, const DseOptions& options) {
  const auto& layers = dfg.layers();
  const auto& vsa = dfg.vsa_ops();
  NSF_CHECK_MSG(!layers.empty() || !vsa.empty(),
                "workload has no AdArray kernels to map");
  const std::vector<ArrayConfig> geometries =
      dse_internal::Phase1Geometries(options);
  if (geometries.empty()) {
    throw InfeasibleError(
        "DSE: no sub-array geometry fits max_pes = " +
        std::to_string(options.max_pes) +
        " and max_columns = " + std::to_string(options.max_columns) +
        " (the smallest candidate sub-array needs more PEs or columns)");
  }

  DseResult result;
  result.design.clock_hz = options.clock_hz;
  result.design.dram_bandwidth = options.dram_bandwidth;
  result.design.precision = dfg.source().precision();

  // ---------------------------------------------------------------- Phase I
  std::optional<Phase1Candidate> best_para;
  double best_seq = 0.0;
  std::optional<ArrayConfig> best_seq_array;

  // Phase I prices each geometry by shape, not node by node.
  const dse_internal::ShapeCounts shapes = dse_internal::CountShapes(dfg);
  for (const ArrayConfig& cfg : geometries) {
    // Sequential mode runtime for this geometry (Algorithm 1, line 12).
    const double t_seq = dse_internal::StaticSequentialCycles(cfg, shapes);
    ++result.evaluated_points;
    if (!best_seq_array.has_value() || t_seq < best_seq) {
      best_seq = t_seq;
      best_seq_array = cfg;
    }

    // The static partition (lines 4-9) needs both sides non-empty and at
    // least two sub-arrays to split.
    if (layers.empty() || vsa.empty() || cfg.count < 2) {
      continue;
    }
    const dse_internal::StaticSplit split =
        dse_internal::BestStaticSplit(cfg, shapes);
    result.evaluated_points += split.evaluations;
    if (!best_para.has_value() || split.t_para < best_para->t_para) {
      best_para = Phase1Candidate{cfg, split.nl, split.t_para};
    }
  }

  result.t_seq_cycles = best_seq;
  // Sequential mode is immediate only when no parallel mapping exists at
  // all; otherwise Phase II first fine-tunes the mapping and the line-14
  // fallback comparison happens against the *tuned* parallel runtime.
  if (!best_para.has_value()) {
    result.design.sequential_mode = true;
    result.design.array = *best_seq_array;
    result.design.nl.assign(layers.size(), result.design.array.count);
    result.design.nv.assign(vsa.size(), result.design.array.count);
    result.design.default_nl = result.design.array.count;
    result.design.default_nv = result.design.array.count;
    result.t_para_cycles = best_seq;
    result.phase1_cycles = best_seq;
    result.phase2_cycles = best_seq;
  } else {
    const auto& p1 = *best_para;
    result.design.array = p1.array;
    result.design.default_nl = p1.static_nl;
    result.design.default_nv = p1.array.count - p1.static_nl;
    result.design.nl.assign(layers.size(), result.design.default_nl);
    result.design.nv.assign(vsa.size(), result.design.default_nv);

    result.phase1_cycles = p1.t_para;

    // -------------------------------------------------------------- Phase II
    // The design's allocation holds the best mapping seen (line 23).
    double best_cycles = result.phase1_cycles;

    if (options.enable_phase2) {
      const auto& cfg = p1.array;
      // Fused-schedule windows guide the per-layer rebalancing.
      const std::vector<VsaSpan> windows = dfg.LayerWindows();
      auto nl = result.design.nl;
      auto nv = result.design.nv;
      // ParallelCycles' three sums, kept current by (new − old) for the
      // moved layer and window: every term is an integer-valued double far
      // below 2^53 (the premise in dse.h), so each update is exact and the
      // sums equal a full node-by-node recount bit for bit.
      double t_nn = dse_internal::StaticNnCycles(cfg, shapes, p1.static_nl);
      dse_internal::VsaSums t_vsa = dse_internal::StaticVsaSums(
          cfg, shapes, result.design.default_nv);
      const auto window_sums = [&](VsaSpan span) {
        dse_internal::VsaSums sums;
        for (std::size_t j = span.first; j <= span.last; ++j) {
          sums.temporal += VsaTemporalCycles(cfg, nv[j], vsa[j].vsa);
          sums.spatial += VsaSpatialCycles(cfg, nv[j], vsa[j].vsa);
        }
        return sums;
      };
      for (int iter = 0; iter < options.phase2_max_iters; ++iter) {
        bool improved_this_iter = false;
        for (std::size_t i = 0; i < layers.size(); ++i) {
          const VsaSpan span = windows[i];
          const bool has_vsa = span.first <= span.last;

          // Per-window imbalance decides the move direction (lines 19-21):
          // donate a sub-array from the slack side to the bottleneck side of
          // *this* window.
          const std::int64_t old_nl = nl[i];
          const double t_layer = LayerCycles(cfg, old_nl, layers[i].gemm);
          const dse_internal::VsaSums window =
              has_vsa ? window_sums(span) : dse_internal::VsaSums{};
          const double t_window_vsa = has_vsa ? window.Best() : 0.0;

          if (t_layer < t_window_vsa && has_vsa) {
            // NN has slack during layer i: donate one sub-array to the VSA
            // nodes concurrent with it (lines 19-20).
            if (nl[i] > 1) {
              nl[i] -= 1;
              for (std::size_t j = span.first; j <= span.last; ++j) {
                nv[j] = std::min<std::int64_t>(nv[j] + 1, cfg.count - 1);
              }
            }
          } else {
            // Symbolic has slack: reclaim a sub-array for layer i (line 21).
            bool can_take = true;
            if (has_vsa) {
              for (std::size_t j = span.first; j <= span.last; ++j) {
                if (nv[j] <= 1) {
                  can_take = false;
                }
              }
            }
            if (can_take && nl[i] < cfg.count - 1) {
              nl[i] += 1;
              if (has_vsa) {
                for (std::size_t j = span.first; j <= span.last; ++j) {
                  nv[j] -= 1;
                }
              }
            }
          }

          if (nl[i] != old_nl) {
            t_nn += LayerCycles(cfg, nl[i], layers[i].gemm) - t_layer;
            if (has_vsa) {
              const dse_internal::VsaSums moved = window_sums(span);
              t_vsa.temporal += moved.temporal - window.temporal;
              t_vsa.spatial += moved.spatial - window.spatial;
            }
          }
          const double t_para = std::max(t_nn, t_vsa.Best());
          ++result.evaluated_points;
          if (t_para < best_cycles) {  // Line 23: keep the best seen.
            best_cycles = t_para;
            result.design.nl = nl;
            result.design.nv = nv;
            improved_this_iter = true;
          }
        }
        if (!improved_this_iter) {
          break;  // Converged before Iter_max.
        }
      }
    }

    result.phase2_cycles = best_cycles;
    result.t_para_cycles = best_cycles;

    // Re-check the sequential fallback against the tuned mapping.
    if (result.t_seq_cycles < result.t_para_cycles) {
      result.design.sequential_mode = true;
      result.design.array = *best_seq_array;
      result.t_para_cycles = result.t_seq_cycles;
    }
  }

  // ------------------------------------------------- Memory and SIMD sizing
  result.design.memory = dse_internal::SizeMemory(dfg, result.design.array,
                                                  options.dictionary_bytes);
  result.design.simd_width = dse_internal::SizeSimd(
      dfg.TotalSimdElems(), result.t_para_cycles, options.simd_widths);

  // Record which VSA mapping the model chose at the final design point.
  if (!vsa.empty()) {
    VsaTotalCycles(result.design.array, vsa, result.design.nv,
                   &result.vsa_mapping);
  }
  return result;
}

}  // namespace nsflow
