// AdArray — the adaptive systolic array of paper Sec. IV-B.
//
// The array is built from N sub-arrays of H x W PEs. At runtime each
// sub-array is *folded* into one of two modes:
//   * NN mode: adjacent sub-arrays combine into a wider weight-stationary
//     systolic array running GEMM (conv via im2col); the passing register is
//     bypassed and horizontal neighbor links are enabled.
//   * VSA mode: each column independently runs blockwise circular
//     convolution with the stationary/streaming/passing-register datapath
//     (see circ_conv_column.h).
//
// Two execution fidelities are provided:
//   * Detailed: register-stepped simulation (SimulateGemmPassDetailed and
//     CircConvColumn) that demonstrates the exact microarchitecture and is
//     cross-checked against the closed-form cycle model in tests.
//   * Kernel-level: tiled functional execution that walks the same tile
//     loops the hardware schedule does (row tiles of n across H·Nl, column
//     tiles of k across W) and charges cycles with Eqs. (1)/(3)/(4). This is
//     what the workload-scale controller uses.
#pragma once

#include <cstdint>
#include <vector>

#include "common/tensor.h"
#include "model/analytical.h"

namespace nsflow::arch {

/// Runtime folding state: how many sub-arrays currently run NN vs VSA work.
struct FoldingPlan {
  std::int64_t nn_subarrays = 0;
  std::int64_t vsa_subarrays = 0;
};

/// Result of a kernel-level array execution.
struct ArrayRun {
  Tensor output;
  double cycles = 0.0;
  double macs = 0.0;
  /// Fraction of PE-cycles doing useful MACs over the run.
  double utilization = 0.0;
};

/// Result of the register-stepped GEMM pass (for tests/examples).
struct DetailedGemmRun {
  Tensor output;          // [m, w_tile]
  std::int64_t cycles = 0;
};

class AdArray {
 public:
  explicit AdArray(ArrayConfig config);

  const ArrayConfig& config() const { return config_; }

  /// Reconfigure the fold (kernel-level flexibility, Sec. IV-B). The two
  /// shares must not exceed the sub-array count.
  void Fold(const FoldingPlan& plan);
  const FoldingPlan& folding() const { return folding_; }

  /// GEMM C[m,k] = A[m,n] · B[n,k] on `nl` cooperating sub-arrays (must not
  /// exceed the NN share of the current fold). Functionally exact (tiled
  /// accumulation); cycles follow Eq. (1).
  ArrayRun RunGemm(const Tensor& a, const Tensor& b, std::int64_t nl);

  /// Batch of `count` independent circular convolutions of dimension d:
  /// out[i] = a[i] ⊛ b[i], with a, b shaped [count, d], on `nv` sub-arrays.
  /// Picks the faster of spatial/temporal mapping (Eq. (5)).
  ArrayRun RunCircConvBatch(const Tensor& a, const Tensor& b, std::int64_t nv);

  /// Register-stepped weight-stationary GEMM for one H x W tile: B_tile is
  /// held stationary ([h_tile, w_tile]), the m rows of A_tile ([m, h_tile])
  /// stream through with row skew. Returns the exact output and the
  /// measured pipeline cycles (== 2H + W + m − 2 when the tile fills the
  /// sub-array). Exposed for microarchitecture validation.
  DetailedGemmRun SimulateGemmPassDetailed(const Tensor& a_tile,
                                           const Tensor& b_tile) const;

  /// Cumulative statistics since construction.
  double total_cycles() const { return total_cycles_; }
  double total_macs() const { return total_macs_; }
  double nn_cycles() const { return nn_cycles_; }
  double vsa_cycles() const { return vsa_cycles_; }

 private:
  ArrayConfig config_;
  FoldingPlan folding_;
  double total_cycles_ = 0.0;
  double total_macs_ = 0.0;
  double nn_cycles_ = 0.0;
  double vsa_cycles_ = 0.0;
};

}  // namespace nsflow::arch
