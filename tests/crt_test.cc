#include "core/crt.h"

#include <gtest/gtest.h>

#include "miller_rabin.h"
#include "primes/prime_source.h"
#include "util/rng.h"

namespace primelabel {
namespace {

TEST(Crt, PaperExampleSection41) {
  // "Given a list of prime numbers P = [3, 4, 5] and a list of integers
  // I = [1, 2, 3], ... there exists a number x = 58."
  Result<BigInt> x = SolveCrt({{3, 1}, {4, 2}, {5, 3}});
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  EXPECT_EQ(x->ToDecimalString(), "58");
}

TEST(Crt, PaperExampleFigure9) {
  // Self-labels [2,3,5,7,11,13] with orders [1,2,3,4,5,6] give SC 29243,
  // and 29243 mod 5 = 3 recovers the third node's order.
  Result<BigInt> x =
      SolveCrt({{2, 1}, {3, 2}, {5, 3}, {7, 4}, {11, 5}, {13, 6}});
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  EXPECT_EQ(x->ToDecimalString(), "29243");
  EXPECT_EQ((*x % BigInt(5)).ToDecimalString(), "3");
}

TEST(Crt, PaperExampleFigure10SplitTable) {
  // Figure 10: the first five nodes produce SC 1523 and the sixth alone 6.
  Result<BigInt> first = SolveCrt({{2, 1}, {3, 2}, {5, 3}, {7, 4}, {11, 5}});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToDecimalString(), "1523");
  Result<BigInt> second = SolveCrt({{13, 6}});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->ToDecimalString(), "6");
}

TEST(Crt, PaperExampleFigure12AfterInsert) {
  // Section 4.2: after inserting the node with self-label 17 at order 3,
  // the second record solves x mod 13 = 7, x mod 17 = 3.
  Result<BigInt> x = SolveCrt({{13, 7}, {17, 3}});
  ASSERT_TRUE(x.ok());
  BigInt v = x.value();
  EXPECT_EQ((v % BigInt(13)).ToDecimalString(), "7");
  EXPECT_EQ((v % BigInt(17)).ToDecimalString(), "3");
  // And the first record solves the shifted orders of 2,3,5,7,11.
  Result<BigInt> y = SolveCrt({{2, 1}, {3, 2}, {5, 4}, {7, 5}, {11, 6}});
  ASSERT_TRUE(y.ok());
  EXPECT_EQ((y.value() % BigInt(5)).ToDecimalString(), "4");
  EXPECT_EQ((y.value() % BigInt(7)).ToDecimalString(), "5");
}

TEST(Crt, SingleCongruence) {
  Result<BigInt> x = SolveCrt({{7, 4}});
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->ToDecimalString(), "4");
}

TEST(Crt, SolutionIsInRange) {
  Result<BigInt> x = SolveCrt({{97, 96}, {89, 88}, {83, 82}});
  ASSERT_TRUE(x.ok());
  BigInt product = BigInt(97) * BigInt(89) * BigInt(83);
  EXPECT_GE(*x, BigInt(0));
  EXPECT_LT(*x, product);
}

TEST(Crt, RejectsNonCoprimeModuli) {
  Result<BigInt> x = SolveCrt({{4, 1}, {6, 5}});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
}

TEST(Crt, RejectsRemainderAtOrAboveModulus) {
  EXPECT_FALSE(SolveCrt({{5, 5}}).ok());
  EXPECT_FALSE(SolveCrt({{5, 7}}).ok());
}

TEST(Crt, RejectsEmptySystemAndTinyModuli) {
  EXPECT_FALSE(SolveCrt({}).ok());
  EXPECT_FALSE(SolveCrt({{1, 0}}).ok());
  EXPECT_FALSE(SolveCrt({{0, 0}}).ok());
}

TEST(Crt, EulerVariantMatchesInverseVariant) {
  PrimeSource primes;
  Rng rng(99);
  for (int round = 0; round < 25; ++round) {
    std::vector<Congruence> system;
    std::size_t base = rng.Below(50);
    int k = 1 + static_cast<int>(rng.Below(6));
    for (int i = 0; i < k; ++i) {
      std::uint64_t m = primes.PrimeAt(base + static_cast<std::size_t>(i));
      system.push_back({m, rng.Below(m)});
    }
    Result<BigInt> a = SolveCrt(system);
    Result<BigInt> b = SolveCrtEuler(system);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << "round " << round;
  }
}

TEST(Crt, EulerVariantHandlesPrimePowers) {
  // Moduli need not be prime, only pairwise coprime: 4 = 2^2, 9 = 3^2.
  Result<BigInt> a = SolveCrt({{4, 3}, {9, 4}, {25, 7}});
  Result<BigInt> b = SolveCrtEuler({{4, 3}, {9, 4}, {25, 7}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ((a.value() % BigInt(4)).ToDecimalString(), "3");
  EXPECT_EQ((a.value() % BigInt(9)).ToDecimalString(), "4");
  EXPECT_EQ((a.value() % BigInt(25)).ToDecimalString(), "7");
}

TEST(Crt, FastSolverMatchesInverseVariantAtEverySize) {
  // SolveCrtFast is the production path behind ScTable::Recompute; it must
  // be bit-identical to the textbook SolveCrt at every system size the SC
  // table can produce, including the degenerate size-1 record.
  PrimeSource primes;
  Rng rng(42);
  for (int size = 1; size <= 64; ++size) {
    std::vector<Congruence> system;
    std::size_t base = rng.Below(500);
    for (int i = 0; i < size; ++i) {
      std::uint64_t m = primes.PrimeAt(base + static_cast<std::size_t>(i));
      system.push_back({m, rng.Below(m)});
    }
    Result<BigInt> slow = SolveCrt(system);
    Result<BigInt> fast = SolveCrtFast(system);
    ASSERT_TRUE(slow.ok());
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(slow.value(), fast.value()) << "system size " << size;
  }
}

TEST(Crt, FastSolverHandlesPrimePowersAndRejectsBadInput) {
  Result<BigInt> slow = SolveCrt({{4, 3}, {9, 4}, {25, 7}});
  Result<BigInt> fast = SolveCrtFast({{4, 3}, {9, 4}, {25, 7}});
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(slow.value(), fast.value());
  // 9 shares the factor 3 with 6, two moduli back: the solver must find
  // it without a pairwise pass, as a missing inverse of 6 * 35 mod 9.
  const std::vector<std::vector<Congruence>> bad = {
      {}, {{4, 1}, {6, 5}}, {{5, 5}}, {{6, 1}, {35, 2}, {9, 4}}};
  for (const std::vector<Congruence>& system : bad) {
    Result<BigInt> rejected = SolveCrtFast(system);
    ASSERT_FALSE(rejected.ok()) << system.size() << " congruences";
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << rejected.status().ToString();
  }

  // Primes just below 2^64 drive every word step at full width: the
  // residues, the inverse and the 128-bit product t = diff * inverse.
  std::vector<std::uint64_t> top_primes;
  for (std::uint64_t n = 18446744073709551557ull; top_primes.size() < 8;
       n -= 2) {
    if (IsPrimeU64(n)) top_primes.push_back(n);
  }
  Rng rng(2);
  for (std::size_t size = 1; size <= top_primes.size(); ++size) {
    for (bool extreme : {false, true}) {
      std::vector<Congruence> system;
      for (std::size_t i = 0; i < size; ++i) {
        const std::uint64_t m = top_primes[i];
        system.push_back({m, extreme ? m - 1 - i % 2 : rng.Below(m)});
      }
      Result<BigInt> reference = SolveCrt(system);
      Result<BigInt> garner = SolveCrtFast(system);
      ASSERT_TRUE(reference.ok());
      ASSERT_TRUE(garner.ok());
      EXPECT_EQ(reference.value(), garner.value())
          << "size " << size << (extreme ? " extreme" : " random");
    }
  }
}

TEST(Crt, AllCongruencesSatisfiedOnRandomSystems) {
  PrimeSource primes;
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    std::vector<Congruence> system;
    std::size_t base = rng.Below(1000);
    int k = 1 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < k; ++i) {
      std::uint64_t m = primes.PrimeAt(base + static_cast<std::size_t>(i) * 2);
      system.push_back({m, rng.Below(m)});
    }
    Result<BigInt> x = SolveCrt(system);
    ASSERT_TRUE(x.ok());
    for (const Congruence& c : system) {
      EXPECT_EQ((x.value() % BigInt::FromUint64(c.modulus)).ToUint64(),
                c.remainder)
          << "mod " << c.modulus;
    }
  }
}

TEST(EulerTotient, KnownValues) {
  EXPECT_EQ(EulerTotientU64(1), 1u);
  EXPECT_EQ(EulerTotientU64(2), 1u);
  EXPECT_EQ(EulerTotientU64(7), 6u);     // prime: p-1
  EXPECT_EQ(EulerTotientU64(8), 4u);     // 2^3: 2^2
  EXPECT_EQ(EulerTotientU64(9), 6u);     // 3^2: 3*2
  EXPECT_EQ(EulerTotientU64(12), 4u);    // {1,5,7,11}
  EXPECT_EQ(EulerTotientU64(100), 40u);
  EXPECT_EQ(EulerTotientU64(997), 996u);
}

TEST(EulerTotient, MultiplicativeOnCoprimes) {
  EXPECT_EQ(EulerTotientU64(35), EulerTotientU64(5) * EulerTotientU64(7));
  EXPECT_EQ(EulerTotientU64(77), EulerTotientU64(7) * EulerTotientU64(11));
}

}  // namespace
}  // namespace primelabel
