// Failure-injection and robustness sweeps: the parser must reject or
// accept (never crash on) arbitrarily mutated documents, and the BigInt
// fast paths must agree with the general path at their size boundaries.

#include <string>

#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "util/rng.h"
#include "xml/datasets.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace primelabel {
namespace {

// --- Parser fuzzing ----------------------------------------------------

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, MutatedDocumentsNeverCrashAndValidOnesRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  RandomTreeOptions options;
  options.node_count = 40;
  options.max_depth = 5;
  options.max_fanout = 5;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 3 + 1;
  XmlTree tree = GenerateRandomTree(options);
  std::string xml = SerializeXml(tree);

  // The pristine document must parse to the same structure.
  Result<XmlTree> pristine = ParseXml(xml);
  ASSERT_TRUE(pristine.ok());
  EXPECT_EQ(SerializeXml(*pristine), xml);

  // Byte-level mutations: parse must return OK or ParseError, never crash,
  // and whatever parses must re-serialize and re-parse cleanly.
  for (int round = 0; round < 200; ++round) {
    std::string mutated = xml;
    int edits = 1 + static_cast<int>(rng.Below(3));
    for (int e = 0; e < edits; ++e) {
      std::size_t pos = rng.Below(mutated.size());
      switch (rng.Below(3)) {
        case 0:
          mutated[pos] = static_cast<char>('!' + rng.Below(90));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.Below(4));
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>('!' + rng.Below(90)));
      }
      if (mutated.empty()) mutated = "<";
    }
    Result<XmlTree> result = ParseXml(mutated);
    if (result.ok()) {
      std::string reserialized = SerializeXml(*result);
      Result<XmlTree> again = ParseXml(reserialized);
      ASSERT_TRUE(again.ok()) << "accepted once, rejected after round-trip: "
                              << reserialized;
      EXPECT_EQ(SerializeXml(*again), reserialized);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(1, 9));

TEST(ParserFuzz, PathologicalInputs) {
  // Deep nesting.
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "<a>";
  for (int i = 0; i < 2000; ++i) deep += "</a>";
  EXPECT_TRUE(ParseXml(deep).ok());
  // Unbalanced deep nesting.
  std::string unbalanced(deep.substr(0, 3 * 1000));
  EXPECT_FALSE(ParseXml(unbalanced).ok());
  // Depth far beyond any thread stack budget for a recursive descent:
  // the parser keeps open elements on the heap.
  constexpr int kVeryDeep = 200000;
  std::string very_deep;
  very_deep.reserve(7 * kVeryDeep);
  for (int i = 0; i < kVeryDeep; ++i) very_deep += "<a>";
  for (int i = 0; i < kVeryDeep; ++i) very_deep += "</a>";
  EXPECT_TRUE(ParseXml(very_deep).ok());
  Result<XmlTree> truncated = ParseXml(very_deep.substr(0, 3 * kVeryDeep));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kParseError);
  // Long attribute values and many attributes.
  std::string wide = "<e";
  for (int i = 0; i < 500; ++i) {
    wide += " a" + std::to_string(i) + "=\"" + std::string(100, 'x') + "\"";
  }
  wide += "/>";
  Result<XmlTree> parsed = ParseXml(wide);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->node(parsed->root()).attributes.size(), 500u);
  // Null bytes inside text.
  std::string with_null = std::string("<a>x") + '\0' + "y</a>";
  Result<XmlTree> nul = ParseXml(with_null);
  EXPECT_TRUE(nul.ok());  // treated as opaque character data
}

// --- BigInt fast-path boundaries ----------------------------------------

TEST(BigIntBoundaries, ModFastPathsAgreeWithDivMod) {
  Rng rng(77);
  // Dividends and divisors straddling the 2-limb (u64) and 4-limb (u128)
  // fast-path boundaries.
  std::vector<BigInt> values;
  for (int limbs = 1; limbs <= 6; ++limbs) {
    for (int round = 0; round < 8; ++round) {
      BigInt v(0);
      for (int i = 0; i < limbs; ++i) {
        v = (v << 32) + BigInt::FromUint64(rng.Next() >> 32);
      }
      if (v.IsZero()) v = BigInt(1);
      values.push_back(v);
    }
  }
  for (const BigInt& a : values) {
    for (const BigInt& b : values) {
      BigInt fast = a % b;
      BigInt slow = BigInt::DivMod(a, b).second;
      ASSERT_EQ(fast, slow) << a << " % " << b;
      ASSERT_EQ(a.IsDivisibleBy(b), slow.IsZero());
      if (b.FitsUint64()) {
        ASSERT_EQ(a.ModU64(b.ToUint64()), slow.ToUint64());
      }
    }
  }
}

TEST(BigIntBoundaries, NegativeDividendsKeepCSemanticsThroughFastPaths) {
  // Small divisor (u64 path) and mid divisor (u128 path) with negative
  // dividends.
  BigInt small_divisor(97);
  BigInt mid_divisor = (BigInt(1) << 80) + BigInt(12345);
  for (const BigInt& divisor : {small_divisor, mid_divisor}) {
    BigInt dividend = -((BigInt(1) << 100) + BigInt(7));
    BigInt fast = dividend % divisor;
    BigInt slow = BigInt::DivMod(dividend, divisor).second;
    EXPECT_EQ(fast, slow);
    EXPECT_LE(fast, BigInt(0));  // sign of the dividend
    EXPECT_EQ((dividend / divisor) * divisor + slow, dividend);
  }
}

TEST(BigIntBoundaries, ExactFourLimbValues) {
  // 128-bit edge: values with the top bit of limb 4 set.
  BigInt max128 = (BigInt(1) << 128) - BigInt(1);
  BigInt just_over = BigInt(1) << 128;
  BigInt divisor = (BigInt(1) << 127) + BigInt(1);
  EXPECT_EQ(max128 % divisor, BigInt::DivMod(max128, divisor).second);
  EXPECT_EQ(just_over % divisor, BigInt::DivMod(just_over, divisor).second);
  EXPECT_TRUE(((BigInt(1) << 128)).IsDivisibleBy(BigInt(1) << 64));
  EXPECT_FALSE(max128.IsDivisibleBy(BigInt(1) << 64));
}

TEST(BigIntBoundaries, MagnitudeBytesRoundTrip) {
  Rng rng(31);
  for (int round = 0; round < 60; ++round) {
    BigInt v = BigInt::FromUint64(rng.Next() >> rng.Below(40));
    for (int i = 0; i < static_cast<int>(rng.Below(5)); ++i) {
      v = (v << 32) + BigInt::FromUint64(rng.Next() >> 32);
    }
    EXPECT_EQ(BigInt::FromMagnitudeBytes(v.ToMagnitudeBytes()), v);
  }
  EXPECT_EQ(BigInt::FromMagnitudeBytes({}), BigInt(0));
  EXPECT_TRUE(BigInt(0).ToMagnitudeBytes().empty());
  // Trailing zero bytes are trimmed: 256 encodes as {0x00, 0x01}.
  EXPECT_EQ(BigInt(256).ToMagnitudeBytes(),
            (std::vector<std::uint8_t>{0x00, 0x01}));
}

}  // namespace
}  // namespace primelabel
