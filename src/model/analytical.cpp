#include "model/analytical.h"

#include <algorithm>

#include "common/error.h"
#include "common/math_util.h"

namespace nsflow {

double LayerCycles(const ArrayConfig& cfg, std::int64_t nl,
                   const GemmDims& gemm) {
  NSF_CHECK_MSG(nl >= 1, "layer needs at least one sub-array");
  NSF_CHECK_MSG(gemm.m > 0 && gemm.n > 0 && gemm.k > 0,
                "layer GEMM dims must be positive");
  const std::int64_t h = cfg.height;
  const std::int64_t w = cfg.width;
  // Eq. (1): (2H + W + d1 − 2) · ⌈⌈d2/Nl⌉/H⌉ · ⌈d3/W⌉.
  const double pass = static_cast<double>(2 * h + w + gemm.m - 2);
  const double row_tiles =
      static_cast<double>(CeilDiv(CeilDiv(gemm.n, nl), h));
  const double col_tiles = static_cast<double>(CeilDiv(gemm.k, w));
  return pass * row_tiles * col_tiles;
}

double NnTotalCycles(const ArrayConfig& cfg, std::span<const LayerNode> layers,
                     std::span<const std::int64_t> nl) {
  NSF_CHECK_MSG(nl.size() == layers.size(),
                "one sub-array allocation per layer required");
  double total = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    total += LayerCycles(cfg, nl[i], layers[i].gemm);
  }
  return total;
}

double VsaStreamPeriod(std::int64_t height, std::int64_t dim) {
  // Fill the H stationary registers, stream d elements with the 1-cycle
  // passing-register skew down H rows, drain: T = 3H + d − 1.
  return static_cast<double>(3 * height + dim - 1);
}

double VsaSpatialCycles(const ArrayConfig& cfg, std::int64_t nv,
                        const VsaDims& vsa) {
  NSF_CHECK_MSG(nv >= 1, "VSA node needs at least one sub-array");
  const double t = VsaStreamPeriod(cfg.height, vsa.dim);
  // Eq. (3): n_j · ⌈d_j/(W·H·Nv)⌉ · T — each vector's d elements spread
  // across all PEs of the allocated sub-arrays.
  const double tiles = static_cast<double>(
      CeilDiv(vsa.dim, cfg.width * cfg.height * nv));
  return static_cast<double>(vsa.count) * tiles * t;
}

double VsaTemporalCycles(const ArrayConfig& cfg, std::int64_t nv,
                         const VsaDims& vsa) {
  NSF_CHECK_MSG(nv >= 1, "VSA node needs at least one sub-array");
  const double t = VsaStreamPeriod(cfg.height, vsa.dim);
  // Eq. (4): ⌈n_j/W⌉ · ⌈d_j/(H·Nv)⌉ · T — one vector per column, element
  // range split across the rows of the allocated sub-arrays.
  const double vec_waves = static_cast<double>(CeilDiv(vsa.count, cfg.width));
  const double elem_tiles =
      static_cast<double>(CeilDiv(vsa.dim, cfg.height * nv));
  return vec_waves * elem_tiles * t;
}

double VsaTotalCycles(const ArrayConfig& cfg, std::span<const VsaNode> vsa_ops,
                      std::span<const std::int64_t> nv, VsaMapping* chosen) {
  NSF_CHECK_MSG(nv.size() == vsa_ops.size(),
                "one sub-array allocation per VSA node required");
  double temporal = 0.0;
  double spatial = 0.0;
  for (std::size_t j = 0; j < vsa_ops.size(); ++j) {
    temporal += VsaTemporalCycles(cfg, nv[j], vsa_ops[j].vsa);
    spatial += VsaSpatialCycles(cfg, nv[j], vsa_ops[j].vsa);
  }
  if (chosen != nullptr) {
    *chosen = temporal <= spatial ? VsaMapping::kTemporal : VsaMapping::kSpatial;
  }
  return std::min(temporal, spatial);
}

double SimdCycles(double elems, std::int64_t simd_width) {
  NSF_CHECK_MSG(simd_width >= 1, "SIMD width must be positive");
  constexpr double kPipelineFill = 8.0;  // exp/log/norm units are pipelined.
  if (elems <= 0.0) {
    return 0.0;
  }
  return elems / static_cast<double>(simd_width) + kPipelineFill;
}

double SequentialCycles(const ArrayConfig& cfg,
                        std::span<const LayerNode> layers,
                        std::span<const VsaNode> vsa_ops) {
  // Algorithm 1 line 12: Σ_i f_l_i(H,W,N) + min(Σ_j f_v_j,temp, Σ_j f_v_j,spatial)
  // — every op owns the whole array, neural then symbolic.
  double nn = 0.0;
  for (const auto& layer : layers) {
    nn += LayerCycles(cfg, cfg.count, layer.gemm);
  }
  double temporal = 0.0;
  double spatial = 0.0;
  for (const auto& v : vsa_ops) {
    temporal += VsaTemporalCycles(cfg, cfg.count, v.vsa);
    spatial += VsaSpatialCycles(cfg, cfg.count, v.vsa);
  }
  return nn + std::min(temporal, spatial);
}

double ParallelCycles(const ArrayConfig& cfg,
                      std::span<const LayerNode> layers,
                      std::span<const VsaNode> vsa_ops,
                      std::span<const std::int64_t> nl,
                      std::span<const std::int64_t> nv) {
  // Algorithm 1 line 8: t_para = max(t_nn, t_vsa). NN of loop k+1 overlaps
  // the symbolic tail of loop k in the fused dataflow graph.
  const double t_nn =
      layers.empty() ? 0.0 : NnTotalCycles(cfg, layers, nl);
  const double t_vsa =
      vsa_ops.empty() ? 0.0 : VsaTotalCycles(cfg, vsa_ops, nv);
  return std::max(t_nn, t_vsa);
}

}  // namespace nsflow
