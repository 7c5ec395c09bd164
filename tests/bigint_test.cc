#include "bigint/bigint.h"

#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace primelabel {
namespace {

TEST(BigIntBasics, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.Sign(), 0);
  EXPECT_EQ(zero.BitLength(), 0);
  EXPECT_EQ(zero.ToDecimalString(), "0");
  EXPECT_FALSE(zero.IsOdd());
}

TEST(BigIntBasics, FromInt64) {
  EXPECT_EQ(BigInt(0).ToDecimalString(), "0");
  EXPECT_EQ(BigInt(1).ToDecimalString(), "1");
  EXPECT_EQ(BigInt(-1).ToDecimalString(), "-1");
  EXPECT_EQ(BigInt(123456789).ToDecimalString(), "123456789");
  EXPECT_EQ(BigInt(INT64_MIN).ToDecimalString(), "-9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MAX).ToDecimalString(), "9223372036854775807");
}

TEST(BigIntBasics, FromUint64) {
  EXPECT_EQ(BigInt::FromUint64(0).ToDecimalString(), "0");
  EXPECT_EQ(BigInt::FromUint64(UINT64_MAX).ToDecimalString(),
            "18446744073709551615");
}

TEST(BigIntBasics, SignAndParity) {
  EXPECT_EQ(BigInt(5).Sign(), 1);
  EXPECT_EQ(BigInt(-5).Sign(), -1);
  EXPECT_TRUE(BigInt(5).IsOdd());
  EXPECT_FALSE(BigInt(4).IsOdd());
  EXPECT_TRUE(BigInt(-3).IsOdd());
}

TEST(BigIntBasics, BitLength) {
  EXPECT_EQ(BigInt(1).BitLength(), 1);
  EXPECT_EQ(BigInt(2).BitLength(), 2);
  EXPECT_EQ(BigInt(3).BitLength(), 2);
  EXPECT_EQ(BigInt(4).BitLength(), 3);
  EXPECT_EQ(BigInt(255).BitLength(), 8);
  EXPECT_EQ(BigInt(256).BitLength(), 9);
  EXPECT_EQ(BigInt::FromUint64(UINT64_MAX).BitLength(), 64);
  EXPECT_EQ((BigInt(1) << 100).BitLength(), 101);
}

TEST(BigIntParse, RoundTripsDecimalStrings) {
  for (const char* text :
       {"0", "1", "-1", "42", "123456789012345678901234567890",
        "-999999999999999999999999999999999999"}) {
    Result<BigInt> parsed = BigInt::FromDecimalString(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->ToDecimalString(), text);
  }
}

TEST(BigIntParse, RejectsMalformedInput) {
  EXPECT_FALSE(BigInt::FromDecimalString("").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("-").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("12a3").ok());
  EXPECT_FALSE(BigInt::FromDecimalString(" 12").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("+12").ok());
}

TEST(BigIntParse, NormalizesNegativeZero) {
  Result<BigInt> parsed = BigInt::FromDecimalString("-0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->IsZero());
  EXPECT_EQ(parsed->ToDecimalString(), "0");
}

TEST(BigIntArithmetic, SmallValuesMatchInt64) {
  for (std::int64_t a = -25; a <= 25; ++a) {
    for (std::int64_t b = -25; b <= 25; ++b) {
      EXPECT_EQ((BigInt(a) + BigInt(b)).ToDecimalString(),
                std::to_string(a + b));
      EXPECT_EQ((BigInt(a) - BigInt(b)).ToDecimalString(),
                std::to_string(a - b));
      EXPECT_EQ((BigInt(a) * BigInt(b)).ToDecimalString(),
                std::to_string(a * b));
      if (b != 0) {
        EXPECT_EQ((BigInt(a) / BigInt(b)).ToDecimalString(),
                  std::to_string(a / b));
        EXPECT_EQ((BigInt(a) % BigInt(b)).ToDecimalString(),
                  std::to_string(a % b));
      }
    }
  }
}

TEST(BigIntArithmetic, CarryPropagation) {
  BigInt almost = BigInt::FromUint64(UINT64_MAX);
  EXPECT_EQ((almost + BigInt(1)).ToDecimalString(), "18446744073709551616");
  EXPECT_EQ((almost + almost).ToDecimalString(), "36893488147419103230");
  EXPECT_EQ(((almost + BigInt(1)) - BigInt(1)), almost);
}

TEST(BigIntArithmetic, IncrementInPlace) {
  BigInt zero;
  EXPECT_EQ(++zero, BigInt(1));
  BigInt word_max = BigInt::FromUint64(UINT64_MAX);
  ++word_max;
  EXPECT_EQ(word_max.ToDecimalString(), "18446744073709551616");  // 2^64
  // 2^192 - 1 carries through three limbs into a fourth.
  BigInt three_limbs = (BigInt(1) << 192) - BigInt(1);
  ++three_limbs;
  EXPECT_EQ(three_limbs, BigInt(1) << 192);
  EXPECT_EQ(three_limbs.Magnitude().size(), 4u);
  // A carry that stops inside the magnitude leaves the upper limbs alone.
  BigInt partial = (BigInt(5) << 128) + (BigInt(1) << 64) - BigInt(1);
  ++partial;
  EXPECT_EQ(partial, (BigInt(5) << 128) + (BigInt(1) << 64));
}

TEST(BigIntArithmetic, LargeMultiplication) {
  // (10^20)^2 = 10^40
  BigInt big = *BigInt::FromDecimalString("100000000000000000000");
  EXPECT_EQ((big * big).ToDecimalString(),
            "10000000000000000000000000000000000000000");
}

TEST(BigIntArithmetic, KaratsubaMatchesSchoolbook) {
  // Values large enough to cross the Karatsuba threshold (32 limbs = 1024
  // bits): verify (a*b) / b == a and (a*b) % b == 0.
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    BigInt a(1), b(1);
    for (int i = 0; i < 40; ++i) {
      a = (a << 32) + BigInt::FromUint64(rng.Next() >> 32);
      b = (b << 32) + BigInt::FromUint64(rng.Next() >> 32);
    }
    BigInt product = a * b;
    EXPECT_EQ(product / b, a);
    EXPECT_EQ(product % b, BigInt(0));
    EXPECT_EQ(product / a, b);
  }
}

TEST(BigIntDivision, DivModIdentity) {
  Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    BigInt a = BigInt::FromUint64(rng.Next());
    for (int i = 0; i < static_cast<int>(rng.Below(6)); ++i) {
      a = a * BigInt::FromUint64(rng.Next() | 1);
    }
    BigInt b = BigInt::FromUint64((rng.Next() >> (rng.Below(60))) | 1);
    auto [q, r] = BigInt::DivMod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
    EXPECT_GE(r, BigInt(0));
  }
}

TEST(BigIntDivision, ModU64MatchesDivModForEveryDivisorShape) {
  // ModU64 (and the catalog's order column, which shares its span loop)
  // divides limb by limb in hardware; DivMod runs Knuth's Algorithm D.
  // The edge divisors: 1, 2, the top bit alone, and the largest word.
  Rng rng(2026);
  std::vector<std::uint64_t> divisors = {1, 2, 3, std::uint64_t{1} << 63,
                                         ~std::uint64_t{0}};
  for (int i = 0; i < 8; ++i) {
    divisors.push_back(rng.Uniform(1u << 19, 1u << 20) | 1);  // self-labels
    divisors.push_back(rng.Next() | 1);
  }
  for (int trial = 0; trial < 400; ++trial) {
    const int limbs = trial % 9;  // 0 (zero) through 8 limbs
    BigInt value(0);
    for (int l = 0; l < limbs; ++l) {
      value = (value << 64) + BigInt::FromUint64(
                                  trial % 7 == 0 ? ~std::uint64_t{0}
                                                 : rng.Next());
    }
    for (std::uint64_t d : divisors) {
      const BigInt expected =
          BigInt::DivMod(value, BigInt::FromUint64(d)).second;
      ASSERT_EQ(value.ModU64(d), expected.ToUint64())
          << value.ToHexString() << " mod " << d;
    }
  }
}

TEST(BigIntDivision, SignsFollowCSemantics) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToDecimalString(), "3");
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToDecimalString(), "-3");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToDecimalString(), "-3");
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).ToDecimalString(), "3");
  EXPECT_EQ((BigInt(7) % BigInt(2)).ToDecimalString(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToDecimalString(), "-1");
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToDecimalString(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(-2)).ToDecimalString(), "-1");
}

TEST(BigIntDivision, KnuthD3CornerCases) {
  // Dividend limbs engineered so the trial quotient needs correction.
  BigInt a = (BigInt(1) << 128) - BigInt(1);
  BigInt b = (BigInt(1) << 64) + BigInt(1);
  auto [q, r] = BigInt::DivMod(a, b);
  EXPECT_EQ(q * b + r, a);
  BigInt c = (BigInt(1) << 96) - (BigInt(1) << 32);
  auto [q2, r2] = BigInt::DivMod(a, c);
  EXPECT_EQ(q2 * c + r2, a);
}

TEST(BigIntDivision, EuclideanModIsNonNegative) {
  EXPECT_EQ(BigInt(-7).EuclideanMod(BigInt(3)).ToDecimalString(), "2");
  EXPECT_EQ(BigInt(7).EuclideanMod(BigInt(3)).ToDecimalString(), "1");
  EXPECT_EQ(BigInt(-9).EuclideanMod(BigInt(3)).ToDecimalString(), "0");
}

TEST(BigIntShifts, LeftRightInverse) {
  BigInt v = *BigInt::FromDecimalString("987654321987654321987654321");
  for (int bits : {1, 7, 31, 32, 33, 64, 65, 100}) {
    EXPECT_EQ(((v << bits) >> bits), v) << bits;
  }
  EXPECT_EQ((BigInt(1) << 5).ToDecimalString(), "32");
  EXPECT_EQ((BigInt(32) >> 5).ToDecimalString(), "1");
  EXPECT_EQ((BigInt(31) >> 5).ToDecimalString(), "0");
}

TEST(BigIntComparison, TotalOrder) {
  EXPECT_LT(BigInt(-2), BigInt(-1));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt(1), BigInt::FromUint64(UINT64_MAX));
  EXPECT_LT(BigInt::FromUint64(UINT64_MAX), BigInt(1) << 70);
  EXPECT_EQ(BigInt(42), BigInt(42));
  EXPECT_NE(BigInt(42), BigInt(-42));
}

TEST(BigIntDivisibility, IsDivisibleBy) {
  BigInt product = BigInt(3) * BigInt(5) * BigInt(7);
  EXPECT_TRUE(product.IsDivisibleBy(BigInt(3)));
  EXPECT_TRUE(product.IsDivisibleBy(BigInt(15)));
  EXPECT_TRUE(product.IsDivisibleBy(BigInt(105)));
  EXPECT_FALSE(product.IsDivisibleBy(BigInt(2)));
  EXPECT_FALSE(product.IsDivisibleBy(BigInt(11)));
}

TEST(BigIntGcd, MatchesKnownValues) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToDecimalString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToDecimalString(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(5), BigInt(0)).ToDecimalString(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)).ToDecimalString(), "0");
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToDecimalString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToDecimalString(), "1");
}

TEST(BigIntGcd, ExtendedGcdBezoutIdentity) {
  Rng rng(13);
  for (int round = 0; round < 100; ++round) {
    BigInt a = BigInt::FromUint64(rng.Next() >> rng.Below(32));
    BigInt b = BigInt::FromUint64(rng.Next() >> rng.Below(32));
    auto result = BigInt::ExtendedGcd(a, b);
    EXPECT_EQ(a * result.x + b * result.y, result.g);
    EXPECT_EQ(result.g, BigInt::Gcd(a, b));
  }
}

TEST(BigIntModular, InverseTimesValueIsOne) {
  BigInt modulus = *BigInt::FromDecimalString("1000000007");  // prime
  for (std::int64_t value : {2, 3, 999999999, 123456789}) {
    Result<BigInt> inverse = BigInt::ModInverse(BigInt(value), modulus);
    ASSERT_TRUE(inverse.ok());
    EXPECT_EQ((inverse.value() * BigInt(value)).EuclideanMod(modulus),
              BigInt(1));
  }
}

TEST(BigIntModular, InverseFailsWhenNotCoprime) {
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9)).ok());
  EXPECT_FALSE(BigInt::ModInverse(BigInt(0), BigInt(9)).ok());
}

TEST(BigIntModular, PowModMatchesFermat) {
  // a^(p-1) = 1 mod p for prime p and gcd(a, p) = 1.
  BigInt p(1000003);
  for (std::int64_t a : {2, 3, 5, 123456}) {
    EXPECT_EQ(BigInt::PowMod(BigInt(a), p - BigInt(1), p), BigInt(1)) << a;
  }
  EXPECT_EQ(BigInt::PowMod(BigInt(2), BigInt(10), BigInt(1000)),
            BigInt(24));  // 1024 mod 1000
  EXPECT_EQ(BigInt::PowMod(BigInt(5), BigInt(0), BigInt(7)), BigInt(1));
}

TEST(BigIntPow, SmallPowers) {
  EXPECT_EQ(BigInt(2).Pow(0).ToDecimalString(), "1");
  EXPECT_EQ(BigInt(2).Pow(10).ToDecimalString(), "1024");
  EXPECT_EQ(BigInt(10).Pow(20).ToDecimalString(), "100000000000000000000");
  EXPECT_EQ(BigInt(-3).Pow(3).ToDecimalString(), "-27");
}

TEST(BigIntHex, KnownValues) {
  EXPECT_EQ(BigInt(0).ToHexString(), "0");
  EXPECT_EQ(BigInt(255).ToHexString(), "ff");
  EXPECT_EQ(BigInt(256).ToHexString(), "100");
  EXPECT_EQ(BigInt(-0xabcdef).ToHexString(), "-abcdef");
  EXPECT_EQ((BigInt(1) << 64).ToHexString(), "10000000000000000");
}

TEST(BigIntUint64, FitsAndRoundTrips) {
  EXPECT_TRUE(BigInt::FromUint64(UINT64_MAX).FitsUint64());
  EXPECT_EQ(BigInt::FromUint64(UINT64_MAX).ToUint64(), UINT64_MAX);
  EXPECT_FALSE((BigInt(1) << 64).FitsUint64());
  EXPECT_EQ(BigInt::FromUint64(12345).ToUint64(), 12345u);
}

// Property sweep: algebraic identities on pseudo-random operands of many
// magnitudes.
class BigIntPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BigIntPropertyTest, RingAxiomsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto random_bigint = [&rng]() {
    BigInt v = BigInt::FromUint64(rng.Next());
    int extra_limbs = static_cast<int>(rng.Below(4));
    for (int i = 0; i < extra_limbs; ++i) {
      v = (v << 64) + BigInt::FromUint64(rng.Next());
    }
    if (rng.Chance(50)) v = -v;
    return v;
  };
  BigInt a = random_bigint();
  BigInt b = random_bigint();
  BigInt c = random_bigint();
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a - a, BigInt(0));
  EXPECT_EQ(a + (-a), BigInt(0));
  EXPECT_EQ(a * BigInt(1), a);
  EXPECT_EQ(a * BigInt(0), BigInt(0));
  if (!b.IsZero()) {
    auto [q, r] = BigInt::DivMod(a, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST_P(BigIntPropertyTest, DecimalRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  BigInt v = BigInt::FromUint64(rng.Next());
  for (int i = 0; i < static_cast<int>(rng.Below(5)); ++i) {
    v = v * BigInt::FromUint64(rng.Next() | 1) + BigInt::FromUint64(rng.Next());
  }
  Result<BigInt> parsed = BigInt::FromDecimalString(v.ToDecimalString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest, ::testing::Range(1, 51));

}  // namespace
}  // namespace primelabel
