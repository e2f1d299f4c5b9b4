// Unit tests for src/common: errors, math helpers, RNG, table, tensor.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/tensor.h"

namespace nsflow {
namespace {

TEST(ErrorTest, CheckThrowsWithExpressionAndLocation) {
  try {
    NSF_CHECK_MSG(1 == 2, "context message");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("context message"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesOnTrue) {
  EXPECT_NO_THROW(NSF_CHECK(2 + 2 == 4));
}

TEST(ErrorTest, HierarchyIsCatchableAsError) {
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw InfeasibleError("x"), Error);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv<std::int64_t>(10, 3), 4);
  EXPECT_EQ(CeilDiv<std::int64_t>(9, 3), 3);
  EXPECT_EQ(CeilDiv<std::int64_t>(1, 3), 1);
  EXPECT_EQ(CeilDiv<std::int64_t>(0, 3), 0);
}

TEST(MathUtilTest, RoundUp) {
  EXPECT_EQ(RoundUp<std::int64_t>(10, 8), 16);
  EXPECT_EQ(RoundUp<std::int64_t>(16, 8), 16);
}

TEST(MathUtilTest, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_EQ(FloorLog2(1024), 10);
}

TEST(MathUtilTest, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
}

TEST(MathUtilTest, ModIsEuclidean) {
  EXPECT_EQ(Mod(5, 3), 2);
  EXPECT_EQ(Mod(-1, 3), 2);
  EXPECT_EQ(Mod(-3, 3), 0);
  EXPECT_EQ(Mod(0, 7), 0);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, EngineMatchesTheStandardEngine) {
  // Every seeded stream is pinned by the engine's words, so the in-repo
  // MT19937-64 must draw std::mt19937_64's for any seed. A million words
  // span about 3,200 twists.
  std::vector<std::uint64_t> seeds = {0, 1, 5489, 2024, ~std::uint64_t{0}};
  std::mt19937_64 pick(20261017);
  for (int i = 0; i < 3; ++i) {
    seeds.push_back(pick());
  }
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    std::int64_t mismatches = 0;
    std::int64_t first_mismatch = -1;
    for (std::int64_t i = 0; i < 1'000'000; ++i) {
      if (engine() != reference() && mismatches++ == 0) {
        first_mismatch = i;
      }
    }
    EXPECT_EQ(mismatches, 0)
        << "seed " << seed << ", first mismatch at word " << first_mismatch;
  }
}

TEST(RngTest, DrawsMatchTheStandardDistributions) {
  // Each draw must equal the std distribution's, built per call as Rng
  // builds it and driven by a std::mt19937_64 with the same seed.
  const std::pair<std::int64_t, std::int64_t> int_ranges[] = {
      {0, 1},
      {-5, 5},
      {0, 1000},
      {-(std::int64_t{1} << 40), std::int64_t{1} << 40},
      {std::numeric_limits<std::int64_t>::min(),
       std::numeric_limits<std::int64_t>::max()}};
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{2024}, ~std::uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 100'000; ++i) {
      const auto& [lo, hi] = int_ranges[i % 5];
      ASSERT_EQ(rng.UniformInt(lo, hi),
                std::uniform_int_distribution<std::int64_t>(lo, hi)(reference))
          << "seed " << seed << ", draw " << i;
      ASSERT_EQ(rng.Gaussian(1.5, 0.25),
                std::normal_distribution<double>(1.5, 0.25)(reference))
          << "seed " << seed << ", draw " << i;
      const double p = 0.01 * (i % 101);
      ASSERT_EQ(rng.Bernoulli(p), std::bernoulli_distribution(p)(reference))
          << "seed " << seed << ", draw " << i;
    }

    // Shuffle and SampleWithoutReplacement are (partial) Fisher-Yates
    // passes over UniformInt.
    std::vector<int> shuffled(1000);
    std::iota(shuffled.begin(), shuffled.end(), 0);
    std::vector<int> expected = shuffled;
    rng.Shuffle(shuffled);
    for (std::size_t i = expected.size(); i > 1; --i) {
      const auto j = std::uniform_int_distribution<std::int64_t>(
          0, static_cast<std::int64_t>(i) - 1)(reference);
      std::swap(expected[i - 1], expected[static_cast<std::size_t>(j)]);
    }
    EXPECT_EQ(shuffled, expected) << "seed " << seed;

    const std::size_t n = 500;
    const std::size_t k = 120;
    std::vector<std::size_t> indices(n);
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = std::uniform_int_distribution<std::int64_t>(
          static_cast<std::int64_t>(i),
          static_cast<std::int64_t>(n) - 1)(reference);
      std::swap(indices[i], indices[static_cast<std::size_t>(j)]);
    }
    indices.resize(k);
    EXPECT_EQ(rng.SampleWithoutReplacement(n, k), indices) << "seed " << seed;

    // The streams are still in step.
    EXPECT_EQ(rng.UniformInt(0, 1'000'000),
              std::uniform_int_distribution<std::int64_t>(0, 1'000'000)(
                  reference))
        << "seed " << seed;
  }
}

TEST(RngTest, UniformMatchesTheStandardDistribution) {
  // Uniform converts one engine word directly; it must return the doubles
  // std::uniform_real_distribution returns from the same engine state,
  // because every seeded arrival stream is pinned by its draws.
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0}, {-3.5, 7.25}, {1e-9, 2e-9}, {-1e6, 1e6}, {5.0, 5.0}};
  Rng rng(2024);
  std::mt19937_64 reference(2024);
  for (int i = 0; i < 1'000'000; ++i) {
    const auto& [lo, hi] = ranges[i % 5];
    const double expected =
        std::uniform_real_distribution<double>(lo, hi)(reference);
    ASSERT_EQ(rng.Uniform(lo, hi), expected) << "draw " << i;
  }
}

TEST(RngTest, UnitFromWordMatchesTheDirectConversion) {
  // The reference: the unsigned conversion rounds the word to the nearest
  // double; the clamp keeps the unit below 1.
  const auto reference = [](std::uint64_t word) {
    const double unit = static_cast<double>(word) * 0x1p-64;
    return unit >= 1.0 ? std::nextafter(1.0, 0.0) : unit;
  };
  std::int64_t mismatches = 0;
  std::uint64_t first_mismatch = 0;
  const auto expect_exact = [&](std::uint64_t word) {
    if (Rng::UnitFromWord(word) != reference(word) && mismatches++ == 0) {
      first_mismatch = word;
    }
  };
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  for (const std::uint64_t word :
       {std::uint64_t{0}, std::uint64_t{1}, kTwo32 - 1, kTwo32, kTwo32 + 1,
        kTwo53 - 1, kTwo53, kTwo53 + 1, kTwo63 - 1, kTwo63, kTwo63 + 1,
        ~std::uint64_t{0} - 1024, ~std::uint64_t{0} - 1023,
        ~std::uint64_t{0}}) {
    expect_exact(word);
  }
  // Low 11 bits exactly 0x400 are round-half-even ties at and above 2^63
  // (the ulp there is 2^11), over random high halves; a truncating
  // conversion rounds half of them the wrong way.
  std::mt19937_64 engine(99);
  for (int i = 0; i < 1'000'000; ++i) {
    expect_exact((engine() & ~std::uint64_t{0x7ff}) | kTwo63 | 0x400);
    expect_exact((engine() & ~std::uint64_t{0x7ff}) | 0x400);
  }
  for (int i = 0; i < 10'000'000; ++i) {
    expect_exact(engine());
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch at word " << first_mismatch;
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  const auto sample = rng.SampleWithoutReplacement(20, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto v : sample) {
    EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementRejectsOversample) {
  Rng rng(3);
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), CheckError);
}

TEST(RngTest, GaussianHasRoughlyCorrectMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter table({"Device", "Runtime"});
  table.AddRow({"TX2", "23.90"});
  table.AddRow({"NSFlow", "1.00"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| Device"), std::string::npos);
  EXPECT_NE(out.find("| TX2"), std::string::npos);
  EXPECT_NE(out.find("| NSFlow"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, RejectsWrongArity) {
  TablePrinter table({"A", "B"});
  EXPECT_THROW(table.AddRow({"only one"}), CheckError);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Percent(0.345, 1), "34.5%");
  EXPECT_EQ(TablePrinter::Bytes(2.0 * 1024.0 * 1024.0), "2.00 MB");
  EXPECT_EQ(TablePrinter::Bytes(512.0), "512.00 B");
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t.at(i), 0.0f);
  }
}

TEST(TensorTest, ShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), CheckError);
}

TEST(TensorTest, At2) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at2(0, 0), 1.0f);
  EXPECT_EQ(t.at2(1, 2), 6.0f);
  t.at2(1, 0) = 9.0f;
  EXPECT_EQ(t.at(3), 9.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r.at2(2, 1), 6.0f);
  EXPECT_THROW(t.Reshaped({4, 2}), CheckError);
}

TEST(TensorTest, ArithmeticHelpers) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_FLOAT_EQ(a.Dot(b), 32.0f);
  EXPECT_FLOAT_EQ(b.MaxAbs(), 6.0f);
  a += b;
  EXPECT_EQ(a.at(0), 5.0f);
  a *= 2.0f;
  EXPECT_EQ(a.at(2), 18.0f);
  EXPECT_NEAR(Tensor({2}, {3, 4}).Norm(), 5.0f, 1e-6);
}

TEST(MatMulTest, MatchesHandComputedProduct) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(5);
  Tensor a({4, 4});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a.at(i) = static_cast<float>(rng.Gaussian());
  }
  Tensor eye({4, 4});
  for (int i = 0; i < 4; ++i) {
    eye.at2(i, i) = 1.0f;
  }
  EXPECT_EQ(MatMul(a, eye), a);
}

TEST(MatMulTest, RejectsMismatchedInner) {
  EXPECT_THROW(MatMul(Tensor({2, 3}), Tensor({4, 2})), CheckError);
}

}  // namespace
}  // namespace nsflow
