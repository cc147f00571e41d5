#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "util/env.h"
#include "util/murmur_hash.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace apujoin {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad ratio");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad ratio");
}

TEST(StatusTest, AllCodesPrintDistinctNames) {
  std::set<std::string> names;
  for (StatusCode c :
       {StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kUnimplemented}) {
    names.insert(Status(c, "").ToString());
  }
  EXPECT_EQ(names.size(), 6u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Internal("boom");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

// Regression: these guards used to be assert()s, which vanish under
// NDEBUG — release builds would dereference an empty optional instead of
// failing loudly. They are APU_CHECKs now and must abort in EVERY build
// configuration.
TEST(StatusOrDeathTest, ValueOnErrorAbortsInAllBuilds) {
  StatusOr<int> v = Status::Internal("boom");
  EXPECT_DEATH({ (void)v.value(); }, "check failed");
}

TEST(StatusOrDeathTest, WrappingOkStatusAbortsInAllBuilds) {
  EXPECT_DEATH({ StatusOr<int> v{Status::OK()}; (void)v; }, "check failed");
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(MurmurTest, MatchesGenericForFourBytes) {
  for (uint32_t k : {0u, 1u, 0xdeadbeefu, 0x7fffffffu, 12345u}) {
    EXPECT_EQ(MurmurHash2x4(k, 0x9747b28cu),
              MurmurHash2(&k, 4, 0x9747b28cu));
  }
}

TEST(MurmurTest, HandlesTailLengths) {
  const char buf[] = "abcdefg";
  // Just exercise all tail branches; values must be stable across calls.
  for (int len = 0; len <= 7; ++len) {
    EXPECT_EQ(MurmurHash2(buf, len, 1), MurmurHash2(buf, len, 1));
  }
}

TEST(MurmurTest, EightByteMatchesGeneric) {
  // MurmurHash2x8 must agree with the byte-buffer hash of the packed pair
  // on a little-endian host (low word at the low address).
  for (uint64_t k : {0ull, 1ull, 0xdeadbeefcafef00dull,
                     0x00000001ffffffffull, 987654321012345ull}) {
    EXPECT_EQ(MurmurHash2x8(k, 0x9747b28cu),
              MurmurHash2(&k, 8, 0x9747b28cu));
  }
}

TEST(MurmurTest, Murmur64ReferenceVectors) {
  // Independently computed from Appleby's MurmurHash64A definition
  // (m = 0xc6a4a7935bd1e995, r = 47) — pins the exact algorithm, since
  // dictionary-string lo words persist these hashes' low halves.
  const struct {
    const char* text;
    uint64_t seed;
    uint64_t hash;
  } kVectors[] = {
      {"", 0x9747b28cull, 0x8397626cd6895052ull},
      {"a", 0x9747b28cull, 0xe96b6245652273aeull},
      {"item-12345", 0x9747b28cull, 0x9c4e2cb626a30f1bull},
      {"abcdefgh", 0x9747b28cull, 0x617b517726694ebaull},
      {"The quick brown fox", 0ull, 0xf3231866c315bc69ull},
      {"apujoin", 1234567ull, 0x1a2401260c907cccull},
  };
  for (const auto& v : kVectors) {
    EXPECT_EQ(MurmurHash64A(v.text, static_cast<int>(strlen(v.text)),
                            v.seed),
              v.hash)
        << "\"" << v.text << "\"";
  }
}

TEST(MurmurTest, SpreadsLowBits) {
  // Sequential keys must not collide in the low bits (bucket index health).
  std::set<uint32_t> buckets;
  for (uint32_t k = 0; k < 4096; ++k) {
    buckets.insert(MurmurHash2x4(2 * k + 1) & 1023u);
  }
  EXPECT_GT(buckets.size(), 1000u * 63 / 64);
}

TEST(SummaryStatsTest, MeanAndVariance) {
  SummaryStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(EmpiricalCdfTest, QuantilesAndCdf) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Cdf(100), 1.0);
  EXPECT_NEAR(cdf.Cdf(50), 0.5, 0.01);
  EXPECT_NEAR(cdf.Quantile(0.5), 50.5, 1.0);
  EXPECT_EQ(cdf.Points(10).size(), 11u);
}

// A quantile landing exactly on a sample returns that sample, even when
// its neighbour is infinite (interpolating would yield inf * 0 = NaN).
TEST(EmpiricalCdfTest, ExactQuantileNextToInfinity) {
  const double inf = std::numeric_limits<double>::infinity();
  EmpiricalCdf cdf({1.0, 2.0, 3.0, inf});
  EXPECT_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_EQ(cdf.Quantile(2.0 / 3.0), 3.0);
  EXPECT_EQ(cdf.Quantile(1.0), inf);
  EXPECT_EQ(cdf.Quantile(5.0 / 6.0), inf);  // between 3 and inf
}

TEST(TablePrinterTest, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FmtPercent(0.345), "34.5%");
  EXPECT_EQ(TablePrinter::FmtCount(16ull * 1024 * 1024), "16M");
  EXPECT_EQ(TablePrinter::FmtCount(64ull * 1024), "64K");
  EXPECT_EQ(TablePrinter::FmtCount(1000), "1000");
}

TEST(EnvTest, DefaultsWhenUnset) {
  unsetenv("APU_TEST_ENV_X");
  EXPECT_EQ(GetEnvInt("APU_TEST_ENV_X", 5), 5);
  EXPECT_FALSE(GetEnvFlag("APU_TEST_ENV_X"));
  setenv("APU_TEST_ENV_X", "12", 1);
  EXPECT_EQ(GetEnvInt("APU_TEST_ENV_X", 5), 12);
  EXPECT_TRUE(GetEnvFlag("APU_TEST_ENV_X"));
  setenv("APU_TEST_ENV_X", "0", 1);
  EXPECT_FALSE(GetEnvFlag("APU_TEST_ENV_X"));
  unsetenv("APU_TEST_ENV_X");
}

}  // namespace
}  // namespace apujoin
