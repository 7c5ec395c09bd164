#ifndef PRIMELABEL_TESTS_MILLER_RABIN_H_
#define PRIMELABEL_TESTS_MILLER_RABIN_H_

#include <cstdint>

#include "util/status.h"

namespace primelabel {

// Deterministic Miller–Rabin for 64-bit integers: the tests' primality
// oracle, independent of the sieve behind PrimeSource. Below 2^32 the
// witnesses {2, 7, 61} are exact (for all n < 4,759,123,141) and products
// fit a u64; above it the witness set {2, 3, ..., 37} is exact for every
// u64 and products go through 128 bits.

namespace miller_rabin_detail {

inline std::uint64_t MulMod(std::uint64_t a, std::uint64_t b,
                            std::uint64_t m) {
  if (m >> 32 == 0) return a * b % m;  // a, b < m < 2^32
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b %
                                    m);
}

inline std::uint64_t PowMod(std::uint64_t base, std::uint64_t exp,
                            std::uint64_t m) {
  std::uint64_t result = 1;
  base %= m;
  while (exp != 0) {
    if (exp & 1u) result = MulMod(result, base, m);
    base = MulMod(base, base, m);
    exp >>= 1;
  }
  return result;
}

/// One Miller–Rabin round: true when `a` certifies n composite.
inline bool WitnessesComposite(std::uint64_t a, std::uint64_t d, int r,
                               std::uint64_t n) {
  std::uint64_t x = PowMod(a, d, n);
  if (x == 1 || x == n - 1) return false;
  for (int i = 1; i < r; ++i) {
    x = MulMod(x, x, n);
    if (x == n - 1) return false;
  }
  return true;
}

}  // namespace miller_rabin_detail

inline bool IsPrimeU64(std::uint64_t n) {
  using miller_rabin_detail::WitnessesComposite;
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // n - 1 = d * 2^r with d odd.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1u) == 0) {
    d >>= 1;
    ++r;
  }
  if (n >> 32 == 0) {
    for (std::uint64_t a : {2ull, 7ull, 61ull}) {
      if (a % n != 0 && WitnessesComposite(a, d, r, n)) return false;
    }
    return true;
  }
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (WitnessesComposite(a, d, r, n)) return false;
  }
  return true;
}

/// Smallest prime strictly greater than `n` (n < 2^63 so the result fits).
inline std::uint64_t NextPrimeAfter(std::uint64_t n) {
  PL_CHECK(n < (std::uint64_t{1} << 63));
  std::uint64_t candidate = n + 1;
  if (candidate <= 2) return 2;
  if ((candidate & 1u) == 0) ++candidate;
  while (!IsPrimeU64(candidate)) candidate += 2;
  return candidate;
}

}  // namespace primelabel

#endif  // PRIMELABEL_TESTS_MILLER_RABIN_H_
