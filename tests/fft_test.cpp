// Tests for the FFT fast path: transform identities and equivalence of the
// frequency-domain circular convolution/correlation with the direct forms.
#include "common/error.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vsa/block_code.h"
#include "vsa/fft.h"

namespace nsflow::vsa {
namespace {

std::vector<float> RandomVec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.Gaussian());
  }
  return v;
}

TEST(FftTest, ForwardOfImpulseIsFlat) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  Fft(data, false);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, RoundTripRestoresSignal) {
  Rng rng(1);
  for (const std::size_t n : {2u, 8u, 64u, 256u, 1024u}) {
    std::vector<std::complex<double>> data(n);
    std::vector<std::complex<double>> original(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = {rng.Gaussian(), rng.Gaussian()};
      original[i] = data[i];
    }
    Fft(data, false);
    Fft(data, true);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data[i].real() / static_cast<double>(n), original[i].real(),
                  1e-9);
      EXPECT_NEAR(data[i].imag() / static_cast<double>(n), original[i].imag(),
                  1e-9);
    }
  }
}

TEST(FftTest, ParsevalHolds) {
  Rng rng(2);
  constexpr std::size_t kN = 128;
  std::vector<std::complex<double>> data(kN);
  double time_energy = 0.0;
  for (auto& v : data) {
    v = {rng.Gaussian(), 0.0};
    time_energy += std::norm(v);
  }
  Fft(data, false);
  double freq_energy = 0.0;
  for (const auto& v : data) {
    freq_energy += std::norm(v);
  }
  EXPECT_NEAR(freq_energy / kN, time_energy, 1e-8 * time_energy);
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(12);
  EXPECT_THROW(Fft(data, false), CheckError);
}

class FastConvTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FastConvTest, MatchesDirectConvolution) {
  Rng rng(GetParam());
  const auto a = RandomVec(GetParam(), rng);
  const auto b = RandomVec(GetParam(), rng);
  std::vector<float> fast(GetParam());
  std::vector<float> direct(GetParam());
  FastCircularConvolve(a, b, fast);
  CircularConvolve(a, b, direct);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], direct[i], 1e-3 * (std::abs(direct[i]) + 1.0)) << i;
  }
}

TEST_P(FastConvTest, MatchesDirectCorrelation) {
  Rng rng(GetParam() + 1);
  const auto a = RandomVec(GetParam(), rng);
  const auto b = RandomVec(GetParam(), rng);
  std::vector<float> fast(GetParam());
  std::vector<float> direct(GetParam());
  FastCircularCorrelate(a, b, fast);
  CircularCorrelate(a, b, direct);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], direct[i], 1e-3 * (std::abs(direct[i]) + 1.0)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FastConvTest,
                         ::testing::Values(4, 16, 256, 1024,
                                           // Non-power-of-two fallbacks:
                                           3, 100),
                         [](const auto& info) {
                           std::string name = "d";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(FastConvTest, BindUnbindChainThroughFastPath) {
  // The HRR recovery property must survive the fast path end to end.
  Rng rng(7);
  constexpr std::size_t kD = 512;
  const auto a = RandomVec(kD, rng);
  const auto b = RandomVec(kD, rng);
  std::vector<float> bound(kD);
  FastCircularConvolve(a, b, bound);
  std::vector<float> recovered(kD);
  FastCircularCorrelate(b, bound, recovered);

  // cos(recovered, a) should be high.
  double dot = 0.0;
  double na = 0.0;
  double nr = 0.0;
  for (std::size_t i = 0; i < kD; ++i) {
    dot += static_cast<double>(recovered[i]) * a[i];
    na += static_cast<double>(a[i]) * a[i];
    nr += static_cast<double>(recovered[i]) * recovered[i];
  }
  EXPECT_GT(dot / std::sqrt(na * nr), 0.6);
}

}  // namespace
}  // namespace nsflow::vsa
