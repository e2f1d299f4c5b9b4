// Small integer/math helpers shared across the analytical models, the DSE,
// and the cycle-level simulator.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/error.h"

namespace nsflow {

/// ceil(a / b) for positive integers.
template <typename T>
constexpr T CeilDiv(T a, T b) {
  static_assert(std::is_integral_v<T>);
  NSF_DCHECK(b > 0);
  NSF_DCHECK(a >= 0);
  return (a + b - 1) / b;
}

/// Round `a` up to the next multiple of `b`.
template <typename T>
constexpr T RoundUp(T a, T b) {
  return CeilDiv(a, b) * b;
}

/// floor(log2(x)) for x >= 1.
constexpr int FloorLog2(std::uint64_t x) {
  NSF_DCHECK(x >= 1);
  int r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}

/// True iff x is a power of two (x >= 1).
constexpr bool IsPowerOfTwo(std::uint64_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Saturating clamp to [lo, hi].
template <typename T>
constexpr T Clamp(T v, T lo, T hi) {
  NSF_DCHECK(lo <= hi);
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Euclidean modulo: result in [0, m) even for negative a.
constexpr std::int64_t Mod(std::int64_t a, std::int64_t m) {
  NSF_DCHECK(m > 0);
  const std::int64_t r = a % m;
  return r < 0 ? r + m : r;
}

}  // namespace nsflow
