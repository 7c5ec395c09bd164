#include "primes/prime_source.h"

#include <algorithm>

#include "primes/miller_rabin.h"
#include "primes/sieve.h"

namespace primelabel {

namespace {
// Enough primes (the first 3512, up to 32749) that typical documents never
// fall back to Miller–Rabin extension.
constexpr std::uint64_t kBootstrapSieveLimit = 1 << 15;
}  // namespace

PrimeSource::PrimeSource() {
  Sieve sieve(kBootstrapSieveLimit);
  primes_ = sieve.primes();
}

void PrimeSource::EnsureCount(std::size_t count) {
  while (primes_.size() < count) {
    primes_.push_back(NextPrimeAfter(primes_.back()));
  }
}

std::uint64_t PrimeSource::Next() {
  EnsureCount(cursor_ + 1);
  return primes_[cursor_++];
}

std::uint64_t PrimeSource::PrimeAt(std::size_t index) {
  EnsureCount(index + 1);
  return primes_[index];
}

void PrimeSource::SkipFirst(std::size_t count) {
  EnsureCount(count);
  cursor_ = std::max(cursor_, count);
}

std::optional<std::size_t> PrimeSource::IndexOf(std::uint64_t prime) {
  while (primes_.back() < prime) {
    primes_.push_back(NextPrimeAfter(primes_.back()));
  }
  // The stream now reaches `prime`, so lower_bound stays in range.
  auto it = std::lower_bound(primes_.begin(), primes_.end(), prime);
  if (*it != prime) return std::nullopt;
  return static_cast<std::size_t>(it - primes_.begin());
}

}  // namespace primelabel
