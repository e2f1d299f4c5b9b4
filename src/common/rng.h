// Deterministic random-number utilities.
//
// All stochastic components of the reproduction (synthetic RPM task
// generation, hypervector codebook sampling, workload perturbation sweeps)
// draw from an explicitly-seeded `Rng` so that every table and figure is
// bit-reproducible run to run.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.h"

namespace nsflow {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5f3759df) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    NSF_DCHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi): one engine word through UnitFromWord, then
  /// mapped onto the range. That is libstdc++'s generate_canonical for a
  /// 64-bit engine, so the draws equal std::uniform_real_distribution's
  /// bit for bit (tests/common_test.cpp) without building a distribution
  /// per call.
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return UnitFromWord(engine_()) * (hi - lo) + lo;
  }

  /// `word` * 2^-64, the word rounded to the nearest double, clamped below
  /// 1. The word converts in two 32-bit halves: x86-64 without AVX-512
  /// converts only signed integers, so a direct uint64_t conversion
  /// branches on the top bit, which half of all engine words set. Each
  /// half converts exactly as a signed value, hi * 2^32 is exact, and the
  /// one addition rounds the exact sum to nearest, so the result equals
  /// the direct conversion's bit for bit.
  static double UnitFromWord(std::uint64_t word) {
    const double hi =
        static_cast<double>(static_cast<std::int64_t>(word >> 32));
    const double lo =
        static_cast<double>(static_cast<std::int64_t>(word & 0xffffffffu));
    const double unit = (hi * 0x1p32 + lo) * 0x1p-64;
    return unit >= 1.0 ? std::nextafter(1.0, 0.0) : unit;
  }

  /// Standard normal scaled by `stddev` around `mean`.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Random sign in {-1.0, +1.0} — the bipolar draw used for hypervectors.
  double Sign() { return Bernoulli(0.5) ? 1.0 : -1.0; }

  /// Sample `k` distinct indices from [0, n).
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace nsflow
