// Randomized suites for the limb kernels (bigint/simd.h) and the
// reduction engine built on them, each checked against an independent
// reference on random and adversarial inputs:
//
//   * products — MulLimbSpans against a 32-bit-digit schoolbook written
//     here and against BigInt arithmetic (mixed sizes, all-ones carry
//     stress, unaligned subspans, empty spans);
//   * residues — ChunkResidues against BigInt::ModU64;
//   * the engine — ReciprocalDivisor against BigInt::IsDivisibleBy,
//     including the even-divisor / power-of-two / short-dividend edge
//     cases Montgomery splits on.

#include "bigint/simd.h"

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "bigint/reduction.h"
#include "util/rng.h"

namespace primelabel {
namespace {

using Limb = std::uint64_t;

/// Random limb vector; bias > 0 makes roughly bias% of limbs all ones to
/// force long carry chains.
std::vector<Limb> RandomLimbs(Rng& rng, std::size_t n, unsigned bias) {
  std::vector<Limb> v(n);
  for (Limb& limb : v) limb = rng.Chance(bias) ? ~Limb{0} : rng.Next();
  return v;
}

/// Product reference independent of the kernel: schoolbook over 32-bit
/// digits with 64-bit accumulators, repacked into minimal 64-bit limbs.
std::vector<Limb> DigitProduct(std::span<const Limb> a,
                               std::span<const Limb> b) {
  auto digits = [](std::span<const Limb> v) {
    std::vector<std::uint32_t> d;
    for (Limb limb : v) {
      d.push_back(static_cast<std::uint32_t>(limb));
      d.push_back(static_cast<std::uint32_t>(limb >> 32));
    }
    return d;
  };
  const std::vector<std::uint32_t> da = digits(a), db = digits(b);
  std::vector<std::uint32_t> p(da.size() + db.size(), 0);
  for (std::size_t i = 0; i < da.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < db.size(); ++j) {
      const std::uint64_t cur =
          p[i + j] + static_cast<std::uint64_t>(da[i]) * db[j] + carry;
      p[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    p[i + db.size()] = static_cast<std::uint32_t>(carry);
  }
  std::vector<Limb> out((p.size() + 1) / 2, 0);
  for (std::size_t k = 0; k < p.size(); ++k) {
    out[k / 2] |= static_cast<Limb>(p[k]) << (32 * (k % 2));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

TEST(SimdKernels, MulMatchesBigInt) {
  Rng rng(101);
  std::vector<Limb> product;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t na = rng.Below(30);
    const std::size_t nb = rng.Below(100);
    const unsigned bias = trial % 3 == 0 ? 40 : 0;
    std::vector<Limb> a = RandomLimbs(rng, na, bias);
    std::vector<Limb> b = RandomLimbs(rng, nb, bias);
    simd::MulLimbSpans(a, b, &product);
    ASSERT_EQ(product, DigitProduct(a, b)) << "trial " << trial;
    ASSERT_EQ(BigInt::FromLimbs(product),
              BigInt::FromLimbs(a) * BigInt::FromLimbs(b))
        << "trial " << trial;
  }
}

TEST(SimdKernels, MulAllOnesCarrySaturation) {
  // (B^n - 1)^2 maximizes every column sum and carry.
  std::vector<Limb> product;
  for (std::size_t n : {1u, 2u, 4u, 13u, 64u, 129u, 150u}) {
    std::vector<Limb> ones(n, ~Limb{0});
    simd::MulLimbSpans(ones, ones, &product);
    ASSERT_EQ(product, DigitProduct(ones, ones)) << "n=" << n;
    ASSERT_EQ(BigInt::FromLimbs(product),
              BigInt::FromLimbs(ones) * BigInt::FromLimbs(ones));
  }
}

TEST(SimdKernels, MulUnalignedSubspansAndEmpty) {
  Rng rng(103);
  std::vector<Limb> backing = RandomLimbs(rng, 150, 10);
  std::vector<Limb> product;
  for (int trial = 0; trial < 100; ++trial) {
    // Odd offsets into one backing buffer: operands need not start on
    // any particular boundary.
    const std::size_t off_a = rng.Below(7) + 1;
    const std::size_t off_b = rng.Below(5) + 1;
    const std::size_t na = rng.Below(40);
    const std::size_t nb = rng.Below(40);
    std::span<const Limb> a(backing.data() + off_a, na);
    std::span<const Limb> b(backing.data() + off_b, nb);
    simd::MulLimbSpans(a, b, &product);
    ASSERT_EQ(product, DigitProduct(a, b));
    ASSERT_EQ(BigInt::FromLimbs(product),
              BigInt::FromLimbs(a) * BigInt::FromLimbs(b));
  }
  // Zero-length operands: empty product, either side.
  simd::MulLimbSpans({}, backing, &product);
  EXPECT_TRUE(product.empty());
  simd::MulLimbSpans(backing, {}, &product);
  EXPECT_TRUE(product.empty());
}

TEST(SimdKernels, ChunkResiduesMatchModU64) {
  Rng rng(113);
  // 515 and 1024 cross the kernel's 512-limb power-table block border.
  for (std::size_t n : {1u, 2u, 7u, 33u, 100u, 512u, 515u, 1024u}) {
    std::vector<Limb> magnitude = RandomLimbs(rng, n, n % 2 ? 25 : 0);
    std::uint64_t residues[simd::kChunkCount];
    simd::ChunkResidues(magnitude, residues);
    const BigInt value = BigInt::FromLimbs(magnitude);
    for (int j = 0; j < simd::kChunkCount; ++j) {
      ASSERT_EQ(residues[j], value.ModU64(kFingerprintChunkTable[j].product))
          << "n=" << n << " chunk " << j;
    }
  }
}

/// One deterministic pool of (divisor, dividend) pairs that stresses both
/// engine strategies and the Montgomery edge cases: word-sized through
/// 33-limb divisors; even divisors and pure powers of two (the
/// 2^e * odd split); dividends shorter than, equal to, and far wider than
/// the divisor; exact multiples and off-by-one near-multiples.
std::vector<std::pair<BigInt, BigInt>> EnginePairs() {
  Rng rng(127);
  std::vector<std::pair<BigInt, BigInt>> pairs;
  for (std::size_t dlimbs : {1u, 2u, 3u, 5u, 9u, 16u, 33u}) {
    for (int variant = 0; variant < 10; ++variant) {
      std::vector<Limb> d = RandomLimbs(rng, dlimbs, variant % 3 ? 0 : 35);
      if (d.back() == 0) d.back() = 1;
      BigInt divisor = BigInt::FromLimbs(d);
      if (variant % 4 == 1) divisor = divisor << static_cast<int>(rng.Below(40));  // even divisor
      if (variant == 7) divisor = BigInt::FromUint64(1) << static_cast<int>(64 * dlimbs);  // power of two
      if (divisor.IsZero()) divisor = BigInt::FromUint64(3);
      const std::size_t ylimbs = rng.Below(4 * dlimbs + 4);
      BigInt dividend = BigInt::FromLimbs(RandomLimbs(rng, ylimbs, 0));
      switch (variant % 5) {
        case 0:  // exact multiple
          dividend = divisor * dividend;
          break;
        case 1:  // near-multiple (off by one — must not divide)
          dividend = divisor * dividend + BigInt::FromUint64(1);
          break;
        case 2:  // the divisor itself
          dividend = divisor;
          break;
        default:  // random (incl. dividend shorter than divisor)
          break;
      }
      pairs.emplace_back(std::move(divisor), std::move(dividend));
    }
  }
  return pairs;
}

TEST(SimdKernels, ReciprocalDivisorMatchesIsDivisibleBy) {
  ReciprocalDivisor rd;
  for (const auto& [divisor, dividend] : EnginePairs()) {
    rd.Assign(divisor);
    ASSERT_EQ(rd.Divides(dividend), dividend.IsDivisibleBy(divisor))
        << divisor << " | " << dividend;
  }
}

TEST(SimdKernels, MontgomeryEdgeCases) {
  ReciprocalDivisor rd;
  Rng rng(131);
  // Dividend with fewer limbs than the divisor: never divisible.
  const BigInt wide = BigInt::FromLimbs(RandomLimbs(rng, 10, 0));
  rd.Assign(wide);
  EXPECT_FALSE(rd.Divides(BigInt::FromUint64(12345)));
  // Zero dividend: divisible by anything.
  EXPECT_TRUE(rd.Divides(BigInt()));
  // Multi-limb power-of-two divisor against staggered trailing zeros.
  for (int e : {96, 127, 128, 129}) {
    const BigInt pow2 = BigInt::FromUint64(1) << e;
    rd.Assign(pow2);
    EXPECT_TRUE(rd.Divides(BigInt::FromUint64(7) << e));
    EXPECT_TRUE(rd.Divides(BigInt::FromUint64(7) << (e + 5)));
    EXPECT_FALSE(rd.Divides(BigInt::FromUint64(7) << (e - 1)));
  }
  // Even divisor whose odd part also matters: d = 2^70 * odd (the product
  // of two odd words is odd).
  const BigInt odd = BigInt::FromUint64(0x1234567890abcdefull) *
                     BigInt::FromUint64(0xfedcba0987654321ull);
  ASSERT_EQ(odd.ModU64(2), 1u);
  const BigInt even_divisor = odd << 70;
  rd.Assign(even_divisor);
  EXPECT_TRUE(rd.Divides(even_divisor * BigInt::FromUint64(99)));
  EXPECT_FALSE(rd.Divides(odd << 69));  // enough odd part, too few twos
  EXPECT_FALSE(rd.Divides((odd + BigInt::FromUint64(2)) << 70));
}

}  // namespace
}  // namespace primelabel
