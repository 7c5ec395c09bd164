#ifndef PRIMELABEL_PRIMES_SIEVE_H_
#define PRIMELABEL_PRIMES_SIEVE_H_

#include <cstdint>
#include <vector>

namespace primelabel {

/// Classical sieve of Eratosthenes over [0, limit].
///
/// Seeds the prime table behind PrimeSource with the primes below 2^15;
/// past that the table grows by a segmented sieve that doubles its limit
/// (prime_source.cc). Tests use it as an independent oracle for pi(n).
class Sieve {
 public:
  /// Sieves all primes up to and including `limit`.
  explicit Sieve(std::uint64_t limit);

  /// True iff `n` is prime; `n` must be <= limit().
  bool IsPrime(std::uint64_t n) const;

  /// All primes <= limit() in increasing order.
  const std::vector<std::uint64_t>& primes() const { return primes_; }

  /// The inclusive sieving bound.
  std::uint64_t limit() const { return limit_; }

  /// Number of primes <= n (prime-counting function pi(n)); n <= limit().
  std::uint64_t CountPrimesUpTo(std::uint64_t n) const;

 private:
  std::uint64_t limit_;
  std::vector<bool> is_prime_;
  std::vector<std::uint64_t> primes_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_PRIMES_SIEVE_H_
