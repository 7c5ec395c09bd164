// Equivalence properties of the divisibility fast-path engine
// (bigint/reduction.h): both layers — fingerprints and reciprocal-cached
// reduction — must be bit-identical to the naive BigInt DivMod path, on
// random values and on real corpus labels.
//
// The Parallel* suite drives batched queries from concurrent threads and
// is part of the TSan target (scripts/check.sh runs `ctest -R Parallel`
// under -DPRIMELABEL_SANITIZE=thread).

#include "bigint/reduction.h"

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ordered_prime_scheme.h"
#include "labeling/prime_top_down.h"
#include "util/rng.h"
#include "xml/shakespeare.h"
#include "xml/tree.h"

namespace primelabel {
namespace {

using U128 = unsigned __int128;

/// Uniform random nonnegative BigInt of exactly `words` 64-bit words (the
/// top word is forced nonzero so bit sizes are as requested).
BigInt RandomBigInt(Rng* rng, int words) {
  BigInt value;
  for (int i = 0; i < words; ++i) {
    std::uint64_t word = rng->Next();
    if (i == 0 && word == 0) word = 1;  // first word becomes the top word
    value = (value << 64) + BigInt::FromUint64(word);
  }
  return value;
}

/// First `count` primes by trial division — label factories for synthetic
/// divisible pairs.
std::vector<std::uint64_t> FirstPrimes(int count) {
  std::vector<std::uint64_t> primes;
  for (std::uint64_t n = 2; static_cast<int>(primes.size()) < count; ++n) {
    bool prime = true;
    for (std::uint64_t p : primes) {
      if (p * p > n) break;
      if (n % p == 0) {
        prime = false;
        break;
      }
    }
    if (prime) primes.push_back(n);
  }
  return primes;
}

TEST(FingerprintTable, ChunksCoverAllSixtyFourPrimes) {
  int covered = 0;
  U128 check = 1;
  for (const FingerprintChunk& chunk : kFingerprintChunkTable) {
    EXPECT_EQ(chunk.first, covered);
    ASSERT_GT(chunk.count, 0);
    U128 product = 1;
    for (int k = 0; k < chunk.count; ++k) {
      product *= kFingerprintPrimes[chunk.first + k];
    }
    EXPECT_EQ(static_cast<std::uint64_t>(product), chunk.product);
    EXPECT_EQ(product >> 64, 0u) << "chunk product must fit a word";
    covered += chunk.count;
    check *= 1;  // silence unused in release
  }
  EXPECT_EQ(covered, 64);
}

TEST(Fingerprint, FromScratchMarksExactlyTheDividingPrimes) {
  // 2^3 * 3 * 31 * 127 — mask must have exactly those bits.
  BigInt value = BigInt(8) * BigInt(3) * BigInt(31) * BigInt(127);
  LabelFingerprint fp = FingerprintOf(value);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kFingerprintPrimes.size(); ++i) {
    if ((value % BigInt(static_cast<std::int64_t>(kFingerprintPrimes[i])))
            .IsZero()) {
      expected |= std::uint64_t{1} << i;
    }
  }
  EXPECT_EQ(fp.prime_mask, expected);
  EXPECT_EQ(fp.bit_length, value.BitLength());
  EXPECT_EQ(fp.trailing_zeros, 3);
}

TEST(Fingerprint, NeverRejectsATrueDivisorPair) {
  // Soundness: x | y implies FingerprintMayDivide(fp(x), fp(y)). Build 10k
  // guaranteed-divisible pairs from random prime products.
  std::vector<std::uint64_t> primes = FirstPrimes(200);
  Rng rng(2024);
  for (int iter = 0; iter < 10000; ++iter) {
    BigInt x(1);
    BigInt y(1);
    for (std::uint64_t p : primes) {
      int roll = static_cast<int>(rng.Below(10));
      if (roll < 2) {  // factor of both
        BigInt factor(static_cast<std::int64_t>(p));
        x *= factor;
        y *= factor;
      } else if (roll < 4) {  // factor of y only: x still divides y
        y *= BigInt(static_cast<std::int64_t>(p));
      }
    }
    ASSERT_TRUE(y.IsDivisibleBy(x));
    EXPECT_TRUE(FingerprintMayDivide(FingerprintOf(x), FingerprintOf(y)))
        << "fingerprint rejected a genuine divisor pair at iter " << iter;
  }
}

TEST(Fingerprint, ProperWitnessNeverRejectsAProperDivisorPair) {
  // Soundness of the strict variant: x | y with x != y forces y >= 2x, so
  // the strict bit-length bound may never reject a proper divisor pair.
  std::vector<std::uint64_t> primes = FirstPrimes(200);
  Rng rng(31337);
  for (int iter = 0; iter < 10000; ++iter) {
    BigInt x(1);
    BigInt y(1);
    bool proper = false;
    for (std::uint64_t p : primes) {
      int roll = static_cast<int>(rng.Below(10));
      if (roll < 2) {
        BigInt factor(static_cast<std::int64_t>(p));
        x *= factor;
        y *= factor;
      } else if (roll < 4) {
        y *= BigInt(static_cast<std::int64_t>(p));
        proper = true;  // y gained a factor x lacks
      }
    }
    if (!proper) continue;
    ASSERT_TRUE(y.IsDivisibleBy(x));
    EXPECT_TRUE(
        FingerprintMayProperlyDivide(FingerprintOf(x), FingerprintOf(y)))
        << "strict witness rejected a proper divisor pair at iter " << iter;
  }
}

TEST(Fingerprint, WitnessesAgreeWithExactDivisionOnRandomPairs) {
  // On arbitrary pairs a rejection must always be correct (the filter may
  // pass non-divisible pairs — that is what the exact test is for).
  Rng rng(77);
  for (int iter = 0; iter < 10000; ++iter) {
    BigInt x = RandomBigInt(&rng, 1 + static_cast<int>(rng.Below(3)));
    BigInt y = RandomBigInt(&rng, 1 + static_cast<int>(rng.Below(4)));
    if (!FingerprintMayDivide(FingerprintOf(x), FingerprintOf(y))) {
      EXPECT_FALSE(y.IsDivisibleBy(x)) << "false rejection at iter " << iter;
    }
  }
}

TEST(Fingerprint, IncrementalExtensionMatchesFromScratch) {
  // Simulate labeling: child = parent * self with self drawn from primes
  // inside and far beyond the tracked range.
  std::vector<std::uint64_t> primes = FirstPrimes(400);
  Rng rng(99);
  for (int chain = 0; chain < 200; ++chain) {
    BigInt label(1);
    LabelFingerprint fp = FingerprintOf(label);
    for (int depth = 0; depth < 12; ++depth) {
      std::uint64_t self = primes[rng.Below(primes.size())];
      label *= BigInt::FromUint64(self);
      fp = ExtendFingerprintByPrime(fp, self, label);
      LabelFingerprint scratch = FingerprintOf(label);
      ASSERT_EQ(fp.prime_mask, scratch.prime_mask);
      ASSERT_EQ(fp.bit_length, scratch.bit_length);
      ASSERT_EQ(fp.trailing_zeros, scratch.trailing_zeros);
    }
  }
}

TEST(ReciprocalDivisor, DividesMatchesIsDivisibleByOnRandomPairs) {
  Rng rng(555);
  ReciprocalDivisor cached;
  for (int iter = 0; iter < 10000; ++iter) {
    // Divisors from 1 word (Möller–Granlund path) to 8 words (Montgomery).
    BigInt divisor = RandomBigInt(&rng, 1 + static_cast<int>(rng.Below(8)));
    BigInt dividend;
    if (rng.Chance(50)) {
      // Construct an exactly divisible dividend.
      dividend = divisor * RandomBigInt(&rng, 1 + static_cast<int>(
                                                  rng.Below(4)));
    } else {
      dividend = RandomBigInt(&rng, 1 + static_cast<int>(rng.Below(12)));
    }
    cached.Assign(divisor);
    ASSERT_EQ(cached.Divides(dividend), dividend.IsDivisibleBy(divisor))
        << "iter " << iter << " divisor=" << divisor.ToDecimalString()
        << " dividend=" << dividend.ToDecimalString();
  }
}

TEST(IsProductOf, MatchesBigIntProductOnRandomFactors) {
  // The parent test every row decoder and LoadedCatalog::IsParent run:
  // exact against BigInt multiplication, including products that carry
  // into a new top limb, and false for any off-by-one product or
  // multiplier.
  Rng rng(559);
  for (int iter = 0; iter < 5000; ++iter) {
    const BigInt factor = RandomBigInt(&rng, 1 + static_cast<int>(
                                                 rng.Below(6)));
    const std::uint64_t multiplier = rng.Chance(50) ? rng.Next() | 1
                                                    : 2 + rng.Below(1000);
    const BigInt product = factor * BigInt::FromUint64(multiplier);
    ASSERT_TRUE(IsProductOf(product.Magnitude(), factor.Magnitude(),
                            multiplier))
        << "iter " << iter;
    const BigInt off = product + BigInt(1);
    EXPECT_FALSE(IsProductOf(off.Magnitude(), factor.Magnitude(),
                             multiplier))
        << "iter " << iter;
    EXPECT_FALSE(IsProductOf(product.Magnitude(), factor.Magnitude(),
                             multiplier + 1))
        << "iter " << iter;
  }
}

TEST(ReciprocalDivisor, ReassignmentIsClean) {
  // The anchor-run pattern: one object, many divisors, interleaved sizes so
  // the word path and the Montgomery path alternate over the same scratch.
  Rng rng(557);
  ReciprocalDivisor cached;
  for (int iter = 0; iter < 500; ++iter) {
    int words = (iter % 2 == 0) ? 1 : 3 + static_cast<int>(rng.Below(4));
    BigInt divisor = RandomBigInt(&rng, words);
    cached.Assign(divisor);
    for (int rep = 0; rep < 4; ++rep) {
      BigInt dividend = RandomBigInt(&rng, 1 + static_cast<int>(
                                               rng.Below(10)));
      ASSERT_EQ(cached.Divides(dividend), dividend.IsDivisibleBy(divisor));
    }
  }
}

// --- Corpus-label equivalence ----------------------------------------------

/// Attached nodes of `tree` bucketed by depth.
std::vector<std::vector<NodeId>> NodesByDepth(const XmlTree& tree) {
  std::vector<std::vector<NodeId>> by_depth;
  tree.Preorder([&](NodeId id, int depth) {
    if (static_cast<std::size_t>(depth) >= by_depth.size()) {
      by_depth.resize(depth + 1);
    }
    by_depth[depth].push_back(id);
  });
  return by_depth;
}

TEST(CorpusEquivalence, ShakespeareAncestorPairsSampledPerDepth) {
  // All fast-path layers vs naive division on real labels: sample node
  // pairs from every depth pairing of the Shakespeare corpus.
  XmlTree tree = GenerateShakespeareCorpus(3);
  PrimeTopDownScheme scheme;
  scheme.LabelTree(tree);
  std::vector<std::vector<NodeId>> by_depth = NodesByDepth(tree);
  Rng rng(31337);
  ReciprocalDivisor cached;
  constexpr std::size_t kPerPairOfDepths = 12;
  for (std::size_t da = 0; da < by_depth.size(); ++da) {
    for (std::size_t db = 0; db < by_depth.size(); ++db) {
      for (std::size_t s = 0; s < kPerPairOfDepths; ++s) {
        NodeId a = by_depth[da][rng.Below(by_depth[da].size())];
        NodeId b = by_depth[db][rng.Below(by_depth[db].size())];
        const BigInt& la = scheme.label(a);
        const BigInt& lb = scheme.label(b);
        bool naive = a != b && lb.IsDivisibleBy(la);
        // Layer 1 soundness on this pair.
        if (naive) {
          ASSERT_TRUE(
              FingerprintMayDivide(FingerprintOf(la), FingerprintOf(lb)));
        }
        // Layer 2 exactness on this pair.
        cached.Assign(la);
        ASSERT_EQ(cached.Divides(lb), lb.IsDivisibleBy(la))
            << "depths " << da << "/" << db;
        // And the scheme's own scalar answer stays the source of truth.
        ASSERT_EQ(naive, scheme.IsAncestor(a, b));
      }
    }
  }
}

TEST(ParallelBatchQueries, ConcurrentIsAncestorBatchMatchesScalar) {
  // Batched queries must be safe to issue from several threads against one
  // const scheme (the plan executor does exactly that); run under TSan via
  // scripts/check.sh.
  XmlTree tree = GenerateShakespeareCorpus(2);
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  std::vector<NodeId> nodes;
  tree.Preorder([&](NodeId id, int) { nodes.push_back(id); });
  Rng rng(7);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 2000; ++i) {
    pairs.emplace_back(nodes[rng.Below(nodes.size())],
                       nodes[rng.Below(nodes.size())]);
  }
  std::vector<std::uint8_t> expected;
  scheme.IsAncestorBatch(pairs, &expected);
  ASSERT_EQ(expected.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(expected[i] != 0,
              scheme.IsAncestor(pairs[i].first, pairs[i].second));
  }
  std::vector<std::vector<std::uint8_t>> results(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&scheme, &pairs, &results, t] {
      scheme.IsAncestorBatch(pairs, &results[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(results[t], expected) << "thread " << t;
  }
}

TEST(ParallelBatchQueries, ConcurrentSelectDescendantsMatchesScalar) {
  XmlTree tree = GenerateShakespeareCorpus(2);
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  std::vector<NodeId> nodes;
  tree.Preorder([&](NodeId id, int) { nodes.push_back(id); });
  NodeId anchor = tree.root();
  std::vector<NodeId> expected;
  scheme.SelectDescendants(anchor, nodes, &expected);
  std::vector<NodeId> loop;
  for (NodeId candidate : nodes) {
    if (scheme.IsAncestor(anchor, candidate)) loop.push_back(candidate);
  }
  ASSERT_EQ(expected, loop);
  std::vector<std::vector<NodeId>> results(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&scheme, &nodes, &results, anchor, t] {
      scheme.SelectDescendants(anchor, nodes, &results[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(results[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace primelabel
