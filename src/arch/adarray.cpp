#include "arch/adarray.h"

#include <algorithm>

#include "common/error.h"
#include "common/math_util.h"

namespace nsflow::arch {

AdArray::AdArray(ArrayConfig config) : config_(config) {
  NSF_CHECK_MSG(config_.height >= 1 && config_.width >= 1 && config_.count >= 1,
                "array geometry must be positive");
  folding_ = {config_.count, 0};  // Boot in all-NN fold.
}

void AdArray::Fold(const FoldingPlan& plan) {
  NSF_CHECK_MSG(plan.nn_subarrays >= 0 && plan.vsa_subarrays >= 0 &&
                    plan.nn_subarrays + plan.vsa_subarrays <= config_.count,
                "fold exceeds the sub-array count");
  folding_ = plan;
}

ArrayRun AdArray::RunGemm(const Tensor& a, const Tensor& b, std::int64_t nl) {
  NSF_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "GEMM expects matrices");
  NSF_CHECK_MSG(a.dim(1) == b.dim(0), "GEMM inner dimensions must match");
  NSF_CHECK_MSG(nl >= 1 && nl <= folding_.nn_subarrays,
                "GEMM needs sub-arrays within the NN fold share");
  const std::int64_t m = a.dim(0);
  const std::int64_t n = a.dim(1);
  const std::int64_t k = b.dim(1);
  const std::int64_t h = config_.height;
  const std::int64_t w = config_.width;

  ArrayRun run;
  run.output = Tensor({m, k});

  // Walk the hardware tile loops: the n (reduction) range is split across
  // the nl cooperating sub-arrays, then across row tiles of H; the k range
  // across column tiles of W. Partial products accumulate in MemC exactly as
  // the double-buffered output buffer does.
  const std::int64_t n_per_array = CeilDiv(n, nl);
  const std::int64_t row_tiles = CeilDiv(n_per_array, h);
  const std::int64_t col_tiles = CeilDiv(k, w);

  // Hot loop: raw row pointers and hoisted tile bounds — the per-element
  // at2() index arithmetic would dominate the MAC work otherwise. The loop
  // order (and so the float accumulation order) is exactly the tiled
  // hardware schedule above, keeping outputs bit-identical.
  const float* a_data = a.data();
  const float* b_data = b.data();
  float* out_data = run.output.data();
  for (std::int64_t sub = 0; sub < nl; ++sub) {
    const std::int64_t n0 = sub * n_per_array;
    if (n0 >= n) {
      break;  // Trailing sub-arrays idle when n does not fill them.
    }
    const std::int64_t n_end = std::min(n, n0 + n_per_array);
    for (std::int64_t rt = 0; rt < row_tiles; ++rt) {
      const std::int64_t r0 = n0 + rt * h;
      if (r0 >= n_end) {
        break;
      }
      const std::int64_t r1 = std::min(n_end, r0 + h);
      for (std::int64_t ct = 0; ct < col_tiles; ++ct) {
        const std::int64_t c0 = ct * w;
        const std::int64_t c1 = std::min(k, c0 + w);
        // One array pass: C[:, c0:c1] += A[:, r0:r1] * B[r0:r1, c0:c1].
        for (std::int64_t i = 0; i < m; ++i) {
          const float* a_row = a_data + i * n;
          float* out_row = out_data + i * k;
          for (std::int64_t r = r0; r < r1; ++r) {
            const float av = a_row[r];
            if (av == 0.0f) {
              continue;  // Sparse activations skip whole B rows.
            }
            const float* b_row = b_data + r * k;
            for (std::int64_t c = c0; c < c1; ++c) {
              out_row[c] += av * b_row[c];
            }
          }
        }
      }
    }
  }

  run.cycles = LayerCycles(config_, nl, GemmDims{m, n, k});
  run.macs = static_cast<double>(m) * static_cast<double>(n) *
             static_cast<double>(k);
  const double pe_cycles =
      run.cycles * static_cast<double>(h * w * nl);
  run.utilization = pe_cycles > 0.0 ? run.macs / pe_cycles : 0.0;

  total_cycles_ += run.cycles;
  nn_cycles_ += run.cycles;
  total_macs_ += run.macs;
  return run;
}

ArrayRun AdArray::RunCircConvBatch(const Tensor& a, const Tensor& b,
                                   std::int64_t nv) {
  NSF_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.shape() == b.shape(),
                "circular-conv batch expects equal [count, d] operands");
  NSF_CHECK_MSG(nv >= 1 && nv <= folding_.vsa_subarrays,
                "circular conv needs sub-arrays within the VSA fold share");
  const std::int64_t count = a.dim(0);
  const std::int64_t d = a.dim(1);

  ArrayRun run;
  run.output = Tensor({count, d});
  // Functional result: each vector pair convolves independently; hardware
  // mapping (spatial vs. temporal) only changes *where*, not *what*.
  // Hot loop: the wrap-around index Mod(n - k, d) is replaced by splitting
  // the k range at n (k <= n reads b[n-k], k > n reads b[n-k+d]) — same
  // ascending-k accumulation order, so results stay bit-identical, without
  // a modulo per MAC.
  for (std::int64_t v = 0; v < count; ++v) {
    const float* av = a.row(v);
    const float* bv = b.row(v);
    float* ov = run.output.row(v);
    for (std::int64_t n = 0; n < d; ++n) {
      double acc = 0.0;
      for (std::int64_t k = 0; k <= n; ++k) {
        acc += static_cast<double>(av[k]) * static_cast<double>(bv[n - k]);
      }
      for (std::int64_t k = n + 1; k < d; ++k) {
        acc += static_cast<double>(av[k]) *
               static_cast<double>(bv[n - k + d]);
      }
      ov[n] = static_cast<float>(acc);
    }
  }

  const VsaDims dims{count, d};
  const double spatial = VsaSpatialCycles(config_, nv, dims);
  const double temporal = VsaTemporalCycles(config_, nv, dims);
  run.cycles = std::min(spatial, temporal);
  run.macs = static_cast<double>(count) * static_cast<double>(d) *
             static_cast<double>(d);
  const double pe_cycles =
      run.cycles * static_cast<double>(config_.height * config_.width * nv);
  run.utilization = pe_cycles > 0.0 ? run.macs / pe_cycles : 0.0;

  total_cycles_ += run.cycles;
  vsa_cycles_ += run.cycles;
  total_macs_ += run.macs;
  return run;
}

DetailedGemmRun AdArray::SimulateGemmPassDetailed(const Tensor& a_tile,
                                                  const Tensor& b_tile) const {
  NSF_CHECK_MSG(a_tile.rank() == 2 && b_tile.rank() == 2,
                "detailed GEMM expects matrices");
  const std::int64_t m = a_tile.dim(0);
  const std::int64_t ht = a_tile.dim(1);   // Rows of the stationary tile.
  const std::int64_t wt = b_tile.dim(1);   // Columns of the stationary tile.
  NSF_CHECK_MSG(b_tile.dim(0) == ht, "tile inner dimensions must match");
  NSF_CHECK_MSG(ht <= config_.height && wt <= config_.width,
                "tile exceeds sub-array geometry");

  DetailedGemmRun run;
  run.output = Tensor({m, wt});

  // Register state: A values flow left-to-right (one column per cycle),
  // partial sums flow top-to-bottom (one row per cycle). a_reg[h][w] holds
  // the A element currently at PE (h, w); psum[h][w] the partial sum.
  std::vector<std::vector<float>> a_reg(
      static_cast<std::size_t>(ht),
      std::vector<float>(static_cast<std::size_t>(wt), 0.0f));
  std::vector<std::vector<std::int64_t>> a_row(
      static_cast<std::size_t>(ht),
      std::vector<std::int64_t>(static_cast<std::size_t>(wt), -1));
  std::vector<std::vector<float>> psum(
      static_cast<std::size_t>(ht),
      std::vector<float>(static_cast<std::size_t>(wt), 0.0f));
  std::vector<std::vector<std::int64_t>> psum_row(
      static_cast<std::size_t>(ht),
      std::vector<std::int64_t>(static_cast<std::size_t>(wt), -1));

  // Weight (stationary) load: one row per cycle.
  std::int64_t cycles = config_.height;

  // Stream until the last A row's partial sum drains from the last column:
  // row i enters row h of the array at cycle i + h; the completed dot
  // product for (i, w) exits the bottom of column w at i + ht + w.
  const std::int64_t stream_cycles = m + ht + wt - 1;
  for (std::int64_t t = 0; t < stream_cycles; ++t) {
    // Move right-to-left / bottom-to-top so reads see last cycle's values.
    for (std::int64_t h = ht - 1; h >= 0; --h) {
      for (std::int64_t w = wt - 1; w >= 0; --w) {
        // Shift A horizontally.
        if (w > 0) {
          a_reg[h][w] = a_reg[h][w - 1];
          a_row[h][w] = a_row[h][w - 1];
        } else {
          const std::int64_t i = t - h;  // Row skew at the left edge.
          if (i >= 0 && i < m) {
            a_reg[h][0] = a_tile.at2(i, h);
            a_row[h][0] = i;
          } else {
            a_row[h][0] = -1;
          }
        }
        // MAC: psum from above (h-1, same column, previous cycle — but we
        // iterate bottom-up so psum[h-1][w] still holds last cycle's value).
        if (a_row[h][w] >= 0) {
          const float above = h > 0 ? psum[h - 1][w] : 0.0f;
          const std::int64_t above_row = h > 0 ? psum_row[h - 1][w] : a_row[h][w];
          NSF_CHECK_MSG(h == 0 || above_row == a_row[h][w],
                        "systolic skew mismatch in GEMM pass");
          psum[h][w] = above + a_reg[h][w] * b_tile.at2(h, w);
          psum_row[h][w] = a_row[h][w];
          if (h == ht - 1) {
            run.output.at2(a_row[h][w], w) = psum[h][w];
          }
        } else {
          psum_row[h][w] = -1;
        }
      }
    }
    ++cycles;
  }

  // Architectural pass latency: weight load (H) + skewed stream + drain,
  // evaluated at the full sub-array height/width as Eq. (1) charges it.
  run.cycles = 2 * config_.height + config_.width + m - 2;
  NSF_CHECK_MSG(cycles <= run.cycles + config_.height + config_.width,
                "detailed simulation overran the analytical bound");
  return run;
}

}  // namespace nsflow::arch
