// Randomized equivalence suites for the dispatched limb kernels
// (bigint/simd.h) and the reduction engine built on them. The vector
// kernels' whole contract is "bit-identical to the portable reference on
// every input", so these tests hammer that claim three ways:
//
//   * kernel vs kernel — dispatched output against *Portable on random
//     operands (mixed sizes, all-ones carry stress, unaligned subspans,
//     empty spans);
//   * kernel vs BigInt — the same products/residues against the BigInt
//     arithmetic they accelerate (the independent ground truth);
//   * engine vs ground truth — ReciprocalDivisor under vector vs
//     pinned-scalar dispatch, both against BigInt::IsDivisibleBy,
//     including the even-divisor / power-of-two / short-dividend edge
//     cases Montgomery splits on.
//
// On a host without vector kernels (or a -DPRIMELABEL_DISABLE_SIMD=ON
// build) the dispatched calls resolve to the portable bodies and these
// suites degrade to self-consistency checks — still worth running, since
// the engine comparisons exercise real reduction paths either way.

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

using Limb = std::uint32_t;

BigInt FromLimbs(std::span<const Limb> limbs) {
  BigInt value;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    value = (value << 32) + BigInt::FromUint64(limbs[i]);
  }
  return value;
}

/// Random limb vector; bias > 0 makes roughly bias% of limbs 0xffffffff
/// to force long carry chains through the accumulators.
std::vector<Limb> RandomLimbs(Rng& rng, std::size_t n, unsigned bias) {
  std::vector<Limb> v(n);
  for (Limb& limb : v) {
    limb = rng.Chance(bias) ? ~Limb{0} : static_cast<Limb>(rng.Next());
  }
  return v;
}

TEST(SimdKernels, MulMatchesPortableAndBigInt) {
  Rng rng(101);
  std::vector<Limb> dispatched, portable;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t na = rng.Below(60);
    const std::size_t nb = rng.Below(200);
    const unsigned bias = trial % 3 == 0 ? 40 : 0;
    std::vector<Limb> a = RandomLimbs(rng, na, bias);
    std::vector<Limb> b = RandomLimbs(rng, nb, bias);
    simd::MulLimbSpans(a, b, &dispatched);
    simd::MulLimbSpansPortable(a, b, &portable);
    ASSERT_EQ(dispatched, portable) << "trial " << trial;
    const BigInt truth = FromLimbs(a) * FromLimbs(b);
    ASSERT_EQ(FromLimbs(dispatched), truth) << "trial " << trial;
  }
}

TEST(SimdKernels, MulAllOnesCarrySaturation) {
  // (B^n - 1)^2 maximizes every column sum and carry — the worst case for
  // the split lo/hi accumulator recombine.
  std::vector<Limb> dispatched, portable;
  for (std::size_t n : {1u, 2u, 4u, 13u, 64u, 129u, 300u}) {
    std::vector<Limb> ones(n, ~Limb{0});
    simd::MulLimbSpans(ones, ones, &dispatched);
    simd::MulLimbSpansPortable(ones, ones, &portable);
    ASSERT_EQ(dispatched, portable) << "n=" << n;
    ASSERT_EQ(FromLimbs(dispatched), FromLimbs(ones) * FromLimbs(ones));
  }
}

TEST(SimdKernels, MulUnalignedSubspansAndEmpty) {
  Rng rng(103);
  std::vector<Limb> backing = RandomLimbs(rng, 300, 10);
  std::vector<Limb> dispatched, portable;
  for (int trial = 0; trial < 100; ++trial) {
    // Odd offsets into one backing buffer: the AVX2 loads must cope with
    // any alignment.
    const std::size_t off_a = rng.Below(7) + 1;
    const std::size_t off_b = rng.Below(5) + 1;
    const std::size_t na = rng.Below(80);
    const std::size_t nb = rng.Below(80);
    std::span<const Limb> a(backing.data() + off_a, na);
    std::span<const Limb> b(backing.data() + off_b, nb);
    simd::MulLimbSpans(a, b, &dispatched);
    simd::MulLimbSpansPortable(a, b, &portable);
    ASSERT_EQ(dispatched, portable);
    ASSERT_EQ(FromLimbs(dispatched), FromLimbs(a) * FromLimbs(b));
  }
  // Zero-length operands: empty product, both paths.
  simd::MulLimbSpans({}, backing, &dispatched);
  EXPECT_TRUE(dispatched.empty());
  simd::MulLimbSpansPortable(backing, {}, &portable);
  EXPECT_TRUE(portable.empty());
}

TEST(SimdKernels, ChunkResiduesMatchModU64) {
  Rng rng(113);
  // 1030 and 2048 cross the kernel's 1024-limb power-table block border.
  for (std::size_t n : {1u, 2u, 7u, 33u, 100u, 1024u, 1030u, 2048u}) {
    std::vector<Limb> magnitude = RandomLimbs(rng, n, n % 2 ? 25 : 0);
    std::uint64_t dispatched[simd::kChunkCount];
    std::uint64_t portable[simd::kChunkCount];
    simd::ChunkResidues(magnitude, dispatched);
    simd::ChunkResiduesPortable(magnitude, portable);
    const BigInt value = FromLimbs(magnitude);
    for (int j = 0; j < simd::kChunkCount; ++j) {
      ASSERT_EQ(dispatched[j], portable[j]) << "n=" << n << " chunk " << j;
      ASSERT_EQ(dispatched[j],
                value.ModU64(kFingerprintChunkTable[j].product))
          << "n=" << n << " chunk " << j;
    }
  }
}

TEST(SimdKernels, DispatchOverrideRoundTrips) {
  const simd::Isa detected = simd::DetectedIsa();
  EXPECT_EQ(simd::ActiveIsa(), detected);
  simd::SetActiveIsa(simd::Isa::kScalar);
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  // Requesting a vector ISA clamps to what the host actually has.
  simd::SetActiveIsa(simd::Isa::kAvx2);
  EXPECT_TRUE(simd::ActiveIsa() == detected ||
              simd::ActiveIsa() == simd::Isa::kScalar);
  simd::ResetActiveIsa();
  EXPECT_EQ(simd::ActiveIsa(), detected);
}

/// One deterministic pool of (divisor, dividend) pairs that stresses both
/// engine strategies and the Montgomery edge cases: word-sized through
/// 33-digit divisors; even divisors and pure powers of two (the
/// 2^e * odd split); dividends shorter than, equal to, and far wider than
/// the divisor; exact multiples and off-by-one near-multiples.
std::vector<std::pair<BigInt, BigInt>> EnginePairs() {
  Rng rng(127);
  std::vector<std::pair<BigInt, BigInt>> pairs;
  for (std::size_t dlimbs : {1u, 2u, 3u, 5u, 9u, 16u, 33u}) {
    for (int variant = 0; variant < 10; ++variant) {
      std::vector<Limb> d = RandomLimbs(rng, dlimbs, variant % 3 ? 0 : 35);
      if (d.back() == 0) d.back() = 1;
      BigInt divisor = FromLimbs(d);
      if (variant % 4 == 1) divisor = divisor << static_cast<int>(rng.Below(40));  // even divisor
      if (variant == 7) divisor = BigInt::FromUint64(1) << static_cast<int>(32 * dlimbs);  // power of two
      if (divisor.IsZero()) divisor = BigInt::FromUint64(3);
      const std::size_t ylimbs = rng.Below(4 * dlimbs + 4);
      BigInt dividend = FromLimbs(RandomLimbs(rng, ylimbs, 0));
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

TEST(SimdKernels, ReciprocalDivisorScalarVsVectorBitIdentical) {
  ReciprocalDivisor vec_rd, scalar_rd;
  for (const auto& [divisor, dividend] : EnginePairs()) {
    vec_rd.Assign(divisor);
    const bool vec_divides = vec_rd.Divides(dividend);
    simd::SetActiveIsa(simd::Isa::kScalar);
    scalar_rd.Assign(divisor);
    const bool scalar_divides = scalar_rd.Divides(dividend);
    simd::ResetActiveIsa();
    ASSERT_EQ(vec_divides, scalar_divides)
        << divisor << " | " << dividend;
    // And both against the BigInt ground truth.
    ASSERT_EQ(vec_divides, dividend.IsDivisibleBy(divisor))
        << divisor << " | " << dividend;
  }
}

TEST(SimdKernels, DividesBatchMatchesScalarDivides) {
  // Batches of 1..4 dividends against one cached divisor, under vector
  // and pinned-scalar dispatch, vs per-dividend Divides: all four answers
  // must agree bit-for-bit. EnginePairs supplies mixed widths, so batches
  // mix REDC-lane survivors with fingerprint-free screen outs (shorter
  // dividends, trailing-zero mismatches, zero).
  const auto pairs = EnginePairs();
  ReciprocalDivisor rd;
  for (std::size_t start = 0; start + simd::kRedcLanes <= pairs.size();
       start += simd::kRedcLanes) {
    const BigInt& divisor = pairs[start].first;
    rd.Assign(divisor);
    for (std::size_t count = 1; count <= simd::kRedcLanes; ++count) {
      LimbSpan batch[simd::kRedcLanes];
      bool expected[simd::kRedcLanes];
      for (std::size_t k = 0; k < count; ++k) {
        batch[k] = pairs[start + k].second.Magnitude();
        expected[k] = rd.Divides(batch[k]);
      }
      bool vec_out[simd::kRedcLanes];
      rd.DividesBatch(std::span<const LimbSpan>(batch, count), vec_out);
      bool scalar_out[simd::kRedcLanes];
      simd::SetActiveIsa(simd::Isa::kScalar);
      rd.DividesBatch(std::span<const LimbSpan>(batch, count), scalar_out);
      simd::ResetActiveIsa();
      for (std::size_t k = 0; k < count; ++k) {
        ASSERT_EQ(vec_out[k], expected[k])
            << "lane " << k << "/" << count << " divisor " << divisor;
        ASSERT_EQ(scalar_out[k], expected[k])
            << "lane " << k << "/" << count << " divisor " << divisor;
        ASSERT_EQ(expected[k],
                  pairs[start + k].second.IsDivisibleBy(divisor));
      }
    }
  }
}

TEST(SimdKernels, DividesIntoBatchMatchesIsDivisibleBy) {
  // The SelectAncestors shape: one dividend, batches of 1..4 candidate
  // divisors, vector vs pinned-scalar vs BigInt ground truth.
  const auto pairs = EnginePairs();
  for (std::size_t start = 0; start + simd::kRedcLanes <= pairs.size();
       start += 7) {
    // A dividend wide enough to make several candidates plausible: the
    // product of two pool divisors.
    const BigInt dividend = pairs[start].first * pairs[start + 1].first;
    for (std::size_t count = 1; count <= simd::kRedcLanes; ++count) {
      LimbSpan divisors[simd::kRedcLanes];
      for (std::size_t k = 0; k < count; ++k) {
        divisors[k] = pairs[start + k].first.Magnitude();
      }
      bool vec_out[simd::kRedcLanes];
      DividesIntoBatch(dividend.Magnitude(),
                       std::span<const LimbSpan>(divisors, count), vec_out);
      bool scalar_out[simd::kRedcLanes];
      simd::SetActiveIsa(simd::Isa::kScalar);
      DividesIntoBatch(dividend.Magnitude(),
                       std::span<const LimbSpan>(divisors, count),
                       scalar_out);
      simd::ResetActiveIsa();
      for (std::size_t k = 0; k < count; ++k) {
        const BigInt& divisor = pairs[start + k].first;
        const bool truth = dividend.IsDivisibleBy(divisor);
        ASSERT_EQ(vec_out[k], truth) << divisor << " into " << dividend;
        ASSERT_EQ(scalar_out[k], truth) << divisor << " into " << dividend;
      }
    }
  }
}

TEST(SimdKernels, MontgomeryEdgeCases) {
  ReciprocalDivisor rd;
  Rng rng(131);
  // Dividend with fewer limbs than the divisor: never divisible.
  const BigInt wide = FromLimbs(RandomLimbs(rng, 20, 0));
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
