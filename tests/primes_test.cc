#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "primes/estimates.h"
#include "miller_rabin.h"
#include "primes/prime_source.h"
#include "primes/sieve.h"

namespace primelabel {
namespace {

TEST(Sieve, FirstPrimes) {
  Sieve sieve(100);
  const std::vector<std::uint64_t> expected = {
      2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41,
      43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97};
  EXPECT_EQ(sieve.primes(), expected);
}

TEST(Sieve, IsPrimeAgreesWithList) {
  Sieve sieve(1000);
  for (std::uint64_t n = 0; n <= 1000; ++n) {
    bool in_list = std::binary_search(sieve.primes().begin(),
                                      sieve.primes().end(), n);
    EXPECT_EQ(sieve.IsPrime(n), in_list) << n;
  }
}

TEST(Sieve, CountPrimesMatchesPi) {
  Sieve sieve(10000);
  EXPECT_EQ(sieve.CountPrimesUpTo(10), 4u);
  EXPECT_EQ(sieve.CountPrimesUpTo(100), 25u);
  EXPECT_EQ(sieve.CountPrimesUpTo(1000), 168u);
  EXPECT_EQ(sieve.CountPrimesUpTo(10000), 1229u);
  EXPECT_EQ(sieve.CountPrimesUpTo(1), 0u);
  EXPECT_EQ(sieve.CountPrimesUpTo(2), 1u);
}

TEST(Sieve, EdgeLimits) {
  Sieve tiny(1);
  EXPECT_TRUE(tiny.primes().empty());
  Sieve two(2);
  EXPECT_EQ(two.primes().size(), 1u);
  EXPECT_TRUE(two.IsPrime(2));
}

TEST(MillerRabin, AgreesWithSieve) {
  Sieve sieve(20000);
  for (std::uint64_t n = 0; n <= 20000; ++n) {
    EXPECT_EQ(IsPrimeU64(n), sieve.IsPrime(n)) << n;
  }
}

TEST(MillerRabin, LargeKnownPrimes) {
  EXPECT_TRUE(IsPrimeU64(2147483647ull));            // 2^31 - 1 (Mersenne)
  EXPECT_TRUE(IsPrimeU64(1000000007ull));
  EXPECT_TRUE(IsPrimeU64(1000000000000000003ull));
  EXPECT_TRUE(IsPrimeU64(18446744073709551557ull));  // largest u64 prime
}

TEST(MillerRabin, LargeKnownComposites) {
  EXPECT_FALSE(IsPrimeU64(2147483647ull * 2));
  EXPECT_FALSE(IsPrimeU64(1000000007ull * 1000000009ull));
  // Carmichael numbers fool Fermat but not Miller-Rabin.
  EXPECT_FALSE(IsPrimeU64(561));
  EXPECT_FALSE(IsPrimeU64(1105));
  EXPECT_FALSE(IsPrimeU64(41041));
  EXPECT_FALSE(IsPrimeU64(825265));
}

TEST(MillerRabin, NextPrimeAfter) {
  EXPECT_EQ(NextPrimeAfter(0), 2u);
  EXPECT_EQ(NextPrimeAfter(1), 2u);
  EXPECT_EQ(NextPrimeAfter(2), 3u);
  EXPECT_EQ(NextPrimeAfter(3), 5u);
  EXPECT_EQ(NextPrimeAfter(13), 17u);
  EXPECT_EQ(NextPrimeAfter(2147483647ull), 2147483659ull);
}

TEST(PrimeSource, StreamsPrimesInOrder) {
  PrimeSource source;
  EXPECT_EQ(source.Next(), 2u);
  EXPECT_EQ(source.Next(), 3u);
  EXPECT_EQ(source.Next(), 5u);
  EXPECT_EQ(source.Next(), 7u);
  EXPECT_EQ(source.cursor(), 4u);
}

TEST(PrimeSource, PrimeAtIsRandomAccess) {
  PrimeSource source;
  EXPECT_EQ(source.PrimeAt(0), 2u);
  EXPECT_EQ(source.PrimeAt(24), 97u);
  EXPECT_EQ(source.PrimeAt(999), 7919u);  // the 1000th prime
  EXPECT_EQ(source.cursor(), 0u);         // PrimeAt must not advance
}

TEST(PrimeSource, SkipFirstAdvancesMonotonically) {
  PrimeSource source;
  source.SkipFirst(3);
  EXPECT_EQ(source.Next(), 7u);
  source.SkipFirst(2);  // cursor already past: no-op
  EXPECT_EQ(source.Next(), 11u);
}

TEST(PrimeSource, ExtendsPastBootstrapSieve) {
  PrimeSource source;
  // The 4000th prime (37813) is past the 2^15 bootstrap sieve.
  EXPECT_EQ(source.PrimeAt(3999), 37813u);
  EXPECT_TRUE(IsPrimeU64(source.PrimeAt(5000)));
  EXPECT_LT(source.PrimeAt(4999), source.PrimeAt(5000));
}

TEST(PrimeSource, SievedStreamMatchesMillerRabinForFirst2To20Primes) {
  // The stream against the Miller–Rabin-filtered integers, prime by prime
  // and non-prime by non-prime, through the 2^20-th prime (16,290,047):
  // past every doubling of the sieve from 2^15 to 2^24.
  PrimeSource source;
  std::size_t index = 0;
  std::uint64_t first_mismatch = 0;
  for (std::uint64_t n = 0; index < (std::size_t{1} << 20); ++n) {
    const bool prime = IsPrimeU64(n);
    if (prime != PrimeSource::IsPrime(n) || (prime && source.Next() != n)) {
      first_mismatch = n;
      break;
    }
    if (prime) ++index;
  }
  EXPECT_EQ(first_mismatch, 0u) << "at stream index " << index;
  EXPECT_EQ(source.cursor(), std::size_t{1} << 20);
  EXPECT_EQ(source.PrimeAt((std::size_t{1} << 20) - 1), 16290047u);
}

TEST(PrimeSource, IndexOfRejectsNonPrimes) {
  PrimeSource source;
  EXPECT_EQ(PrimeSource::IndexOf(2), 0u);
  EXPECT_EQ(PrimeSource::IndexOf(7919), 999u);
  EXPECT_EQ(PrimeSource::IndexOf(37813), 3999u);  // past the first 2^15
  EXPECT_EQ(PrimeSource::IndexOf(source.PrimeAt(100000)), 100000u);
  // 32,769 = 3 * 10,923 and 1,000,001 = 101 * 9,901 lie past 2^15;
  // 16,290,049 = 19 * 23 * 37,277 past the 2^20-th prime.
  for (std::uint64_t value : {0ull, 1ull, 4ull, 32769ull, 1000001ull,
                              16290049ull}) {
    EXPECT_FALSE(PrimeSource::IndexOf(value).has_value()) << value;
  }
  // At or past the bound nothing is in the stream, primes included.
  for (std::uint64_t value : {PrimeSource::kBound, PrimeSource::kBound + 15,
                              (std::uint64_t{1} << 61) - 1}) {
    EXPECT_FALSE(PrimeSource::IndexOf(value).has_value()) << value;
  }
  EXPECT_EQ(source.cursor(), 0u);  // lookups never move the cursor
}

TEST(PrimeSource, ValuesAtOrPastTheBoundFailTyped) {
  // The O(1) gates persisted values take before the table grows.
  for (std::uint64_t value :
       {PrimeSource::kBound, PrimeSource::kBound + 15,  // a prime past it
        (std::uint64_t{1} << 40) + 15, (std::uint64_t{1} << 61) - 1,
        ~std::uint64_t{0}}) {
    const Status status = PrimeSource::CheckPrime(value);
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << value;
    EXPECT_NE(status.message().find("bound"), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(PrimeSource::CheckPrime(6).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(PrimeSource::CheckPrime(7).ok());
  const std::size_t cursor_2_to_40 = std::size_t{1} << 40;
  EXPECT_EQ(PrimeSource::CheckRoom(cursor_2_to_40, 1).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(PrimeSource::CheckRoom(PrimeSource::kLength, 1).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(PrimeSource::CheckRoom(0, PrimeSource::kLength + 1).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(PrimeSource::CheckRoom(PrimeSource::kLength - 1, 1).ok());
  EXPECT_TRUE(PrimeSource::CheckRoom(PrimeSource::kLength, 0).ok());
}

/// pi(n) by the Lucy–Hedgehog recurrence, with no sieve and no list of
/// primes: O(n^(3/4)) time and O(sqrt n) memory. small[v] counts the
/// survivors in [2, v] for v <= r, large[i] those in [2, n / i]; crossing
/// off the multiples of each prime p <= r leaves the primes.
std::uint64_t CountPrimesByLucy(std::uint64_t n) {
  if (n < 2) return 0;
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(n)));
  while (r * r > n) --r;
  while ((r + 1) * (r + 1) <= n) ++r;
  std::vector<std::uint64_t> small(r + 1), large(r + 1);
  for (std::uint64_t v = 1; v <= r; ++v) small[v] = v - 1;
  for (std::uint64_t i = 1; i <= r; ++i) large[i] = n / i - 1;
  for (std::uint64_t p = 2; p <= r; ++p) {
    if (small[p] == small[p - 1]) continue;  // p is not prime
    const std::uint64_t below = small[p - 1];
    const std::uint64_t square = p * p;
    for (std::uint64_t i = 1; i <= r && n / i >= square; ++i) {
      const std::uint64_t d = i * p;
      large[i] -= (d <= r ? large[d] : small[n / d]) - below;
    }
    for (std::uint64_t v = r; v >= square; --v) {
      small[v] -= small[v / p] - below;
    }
  }
  return large[1];
}

TEST(PrimeSource, LengthIsThePrimeCountBelowTheBound) {
  // The counter agrees with the classical sieve and with the stream's own
  // table where both are cheap to reach...
  Sieve sieve(std::uint64_t{1} << 20);
  for (std::uint64_t n : {0ull, 1ull, 2ull, 3ull, 100ull, 32767ull, 32768ull,
                          65537ull, 1000000ull, 1ull << 20}) {
    EXPECT_EQ(CountPrimesByLucy(n), sieve.CountPrimesUpTo(n)) << n;
  }
  EXPECT_EQ(PrimeSource::IndexOf(1048573), CountPrimesByLucy(1048573) - 1);
  EXPECT_EQ(CountPrimesByLucy((std::uint64_t{1} << 26) - 1), 3957809u);
  // ...and fixes kLength without sieving to the bound, which would take
  // the whole table, about 1 GB.
  EXPECT_EQ(CountPrimesByLucy(PrimeSource::kBound - 1), PrimeSource::kLength);
}

TEST(PrimeSource, ConcurrentLookupsShareOneTable) {
  // Each test runs in a fresh process under ctest, so the shared table
  // starts at 2^15 here and four threads race each other through the
  // same doublings; every answer must match a serial sieve.
  Sieve sieve(std::uint64_t{1} << 20);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&sieve, &mismatches, t] {
      PrimeSource source;
      for (std::size_t i = t; i < sieve.primes().size(); i += 4) {
        if (source.PrimeAt(i) != sieve.primes()[i]) ++mismatches;
      }
      for (std::uint64_t n = t; n <= sieve.limit(); n += 4) {
        if (PrimeSource::IsPrime(n) != sieve.IsPrime(n)) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PrimeSource, ResetRestartsStream) {
  PrimeSource source;
  source.Next();
  source.Next();
  source.Reset();
  EXPECT_EQ(source.Next(), 2u);
}

TEST(Estimates, NthPrimeEstimateIsAsymptoticallyClose) {
  PrimeSource source;
  // Prime number theorem: p_n / (n ln n) -> 1. Check the ratio is within
  // 30% for a spread of n (the paper's Figure 3 plots exactly this gap).
  for (std::size_t n : {100u, 1000u, 5000u, 10000u}) {
    double actual = static_cast<double>(source.PrimeAt(n - 1));
    double estimate = EstimatedNthPrime(n);
    EXPECT_NEAR(estimate / actual, 1.0, 0.30) << n;
  }
}

TEST(Estimates, BitLengthEstimateWithinOneBit) {
  PrimeSource source;
  // Figure 3's point: the *bit length* error of the estimate stays tiny.
  for (std::size_t n = 2; n <= 10000; n += 97) {
    int actual_bits = BitLengthU64(source.PrimeAt(n - 1));
    double estimated_bits = EstimatedNthPrimeBits(n);
    EXPECT_NEAR(estimated_bits, actual_bits, 1.5) << n;
  }
}

TEST(Estimates, BitLengthU64KnownValues) {
  EXPECT_EQ(BitLengthU64(0), 0);
  EXPECT_EQ(BitLengthU64(1), 1);
  EXPECT_EQ(BitLengthU64(2), 2);
  EXPECT_EQ(BitLengthU64(255), 8);
  EXPECT_EQ(BitLengthU64(256), 9);
  EXPECT_EQ(BitLengthU64(~0ull), 64);
}

TEST(Estimates, PrimeCountTracksPi) {
  Sieve sieve(100000);
  for (double x : {100.0, 1000.0, 10000.0, 100000.0}) {
    double actual =
        static_cast<double>(sieve.CountPrimesUpTo(static_cast<std::uint64_t>(x)));
    EXPECT_NEAR(EstimatedPrimeCount(x) / actual, 1.0, 0.20) << x;
  }
}

}  // namespace
}  // namespace primelabel
