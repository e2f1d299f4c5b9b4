// Analytical runtime model — paper Sec. V-C, Eqs. (1)–(5).
//
// These closed-form cycle counts are the contract between NSFlow's frontend
// (which searches over them) and backend (whose cycle-level simulator is
// validated against them in tests/arch_vs_analytical_test.cpp):
//
//   Eq.(1)  t_l(H,W,Nl[i]) = (2H + W + d1 - 2) · ⌈⌈d2/Nl[i]⌉/H⌉ · ⌈d3/W⌉
//   Eq.(2)  t_nn = Σ_{i∈Rl} t_l
//   Eq.(3)  t_v,spatial = n_j · ⌈d_j/(W·H·Nv[j])⌉ · T
//   Eq.(4)  t_v,temp    = ⌈n_j/W⌉ · ⌈d_j/(H·Nv[j])⌉ · T
//   Eq.(5)  t_vsa = min(Σ t_v,temp, Σ t_v,spatial)        with T = 3H + d_j − 1
//
// AdArray is a scale-out design with row-level partition: Nl[i] sub-arrays
// cooperate on layer i by splitting its d2 (reduction) dimension; Nv[j]
// sub-arrays split a VSA node's vector set or element range depending on the
// mapping (spatial vs. temporal).
#pragma once

#include <cstdint>
#include <span>

#include "graph/dataflow_graph.h"

namespace nsflow {

/// AdArray geometry: N sub-arrays of H rows × W columns each.
struct ArrayConfig {
  std::int64_t height = 32;   // H
  std::int64_t width = 16;    // W
  std::int64_t count = 16;    // N (number of sub-arrays)

  std::int64_t TotalPes() const { return height * width * count; }
  bool operator==(const ArrayConfig&) const = default;
};

/// Eq. (1): cycles for NN layer with GEMM dims (d1,d2,d3)=(m,n,k) on Nl
/// cooperating sub-arrays of HxW PEs.
double LayerCycles(const ArrayConfig& cfg, std::int64_t nl,
                   const GemmDims& gemm);

/// Eq. (2): total NN cycles with per-layer sub-array allocation `nl[i]`.
double NnTotalCycles(const ArrayConfig& cfg, std::span<const LayerNode> layers,
                     std::span<const std::int64_t> nl);

/// Streaming period T = 3H + d − 1 for a d-element circular convolution
/// through an H-row column (stationary fill + stream + drain).
double VsaStreamPeriod(std::int64_t height, std::int64_t dim);

/// Eq. (3): spatial mapping — all of one vector spread across PEs.
double VsaSpatialCycles(const ArrayConfig& cfg, std::int64_t nv,
                        const VsaDims& vsa);

/// Eq. (4): temporal mapping — vectors multiplexed over columns.
double VsaTemporalCycles(const ArrayConfig& cfg, std::int64_t nv,
                         const VsaDims& vsa);

enum class VsaMapping : std::uint8_t { kSpatial, kTemporal };

/// Eq. (5): total VSA cycles, taking the better of the two mappings across
/// the whole loop. Optionally reports which mapping won.
double VsaTotalCycles(const ArrayConfig& cfg, std::span<const VsaNode> vsa_ops,
                      std::span<const std::int64_t> nv,
                      VsaMapping* chosen = nullptr);

/// SIMD-unit cycles for `elems` element-wise/reduction operations on a
/// `simd_width`-lane unit (one op per lane per cycle, plus pipeline fill).
double SimdCycles(double elems, std::int64_t simd_width);

/// Algorithm 1 line 12: sequential mode — every node in turn gets all N
/// sub-arrays (Nl[i] = Nv[j] = N), NN then VSA.
double SequentialCycles(const ArrayConfig& cfg,
                        std::span<const LayerNode> layers,
                        std::span<const VsaNode> vsa_ops);

/// Parallel (folded) mode, Phase I form: t_para = max(t_nn, t_vsa) — NN on
/// Nl sub-arrays overlapping VSA on Nv sub-arrays across fused loops
/// (Algorithm 1, line 8).
double ParallelCycles(const ArrayConfig& cfg,
                      std::span<const LayerNode> layers,
                      std::span<const VsaNode> vsa_ops,
                      std::span<const std::int64_t> nl,
                      std::span<const std::int64_t> nv);

}  // namespace nsflow
