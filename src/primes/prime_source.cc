#include "primes/prime_source.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <mutex>
#include <string>
#include <vector>

#include "primes/sieve.h"

namespace primelabel {

namespace {

/// Level 0 of the table is the classical sieve below 2^15 (the first 3,512
/// primes); level k >= 1 holds the primes in [2^(14+k), 2^(15+k)), so the
/// segmented sieve doubles the table's limit once per level, up to
/// PrimeSource::kBound.
constexpr int kFirstBits = 15;
constexpr int kLevels =
    static_cast<int>(std::bit_width(PrimeSource::kBound)) - kFirstBits;
/// Numbers per segment of the doubling sieve: 128 KiB of odd-number flags.
constexpr std::uint64_t kSegment = std::uint64_t{1} << 18;

/// The level whose range holds value < kBound.
int LevelOf(std::uint64_t value) {
  return std::max(0, static_cast<int>(std::bit_width(value)) - kFirstBits);
}

/// The first number of level k's range.
std::uint64_t LevelBase(int k) {
  return k == 0 ? 0 : std::uint64_t{1} << (kFirstBits - 1 + k);
}

/// The sieved prefix of the stream, shared by every PrimeSource: per level,
/// the level's primes in order plus one bit per odd number for O(1)
/// primality. A level is allocated when the sieve reaches it, so memory
/// follows the largest prime looked up, not the bound. Growth sieves the
/// next level under the lock, then publishes the level count; a lookup in
/// a published level reads without the lock, and a published level never
/// changes.
class SievedStream {
 public:
  static SievedStream& Get() {
    static SievedStream stream;
    return stream;
  }

  /// The index-th prime; index < kLength.
  std::uint64_t At(std::size_t index) {
    int levels = levels_.load();
    while (index >= End(levels)) levels = Grow(levels);
    int k = levels - 1;
    while (table_[k].first > index) --k;
    return table_[k].primes[index - table_[k].first];
  }

  /// Primality of value < kBound.
  bool IsPrime(std::uint64_t value) {
    if (value % 2 == 0) return value == 2;
    const int k = Reach(value);
    const std::uint64_t bit = (value - LevelBase(k)) / 2;
    return (table_[k].odd_bits[bit / 64] >> (bit % 64)) & 1;
  }

  /// Number of primes below value < kBound.
  std::size_t Rank(std::uint64_t value) {
    const Level& level = table_[Reach(value)];
    return level.first +
           static_cast<std::size_t>(std::lower_bound(level.primes.begin(),
                                                     level.primes.end(),
                                                     value) -
                                    level.primes.begin());
  }

 private:
  struct Level {
    std::vector<std::uint32_t> primes;
    /// Bit j: LevelBase(k) + 2j + 1 is prime.
    std::vector<std::uint64_t> odd_bits;
    /// Stream index of primes[0].
    std::size_t first = 0;
  };

  SievedStream() {
    const std::uint64_t limit = LevelBase(1);
    Sieve first(limit - 1);
    Level& level = table_[0];
    level.primes.assign(first.primes().begin(), first.primes().end());
    level.odd_bits.assign(limit / 128, 0);
    for (std::uint64_t n = 3; n < limit; n += 2) {
      if (first.IsPrime(n)) {
        level.odd_bits[n / 128] |= std::uint64_t{1} << (n / 2 % 64);
      }
    }
    levels_.store(1);
  }

  /// One past the stream index of the last prime in the first `levels`.
  std::size_t End(int levels) const {
    const Level& last = table_[levels - 1];
    return last.first + last.primes.size();
  }

  /// Grows the table until it holds value's level; returns that level.
  int Reach(std::uint64_t value) {
    const int k = LevelOf(value);
    int levels = levels_.load();
    while (k >= levels) levels = Grow(levels);
    return k;
  }

  /// Sieves level `seen` unless another thread already published it;
  /// returns the level count now published.
  int Grow(int seen) {
    std::lock_guard<std::mutex> lock(mu_);
    const int k = levels_.load();
    if (k != seen) return k;
    PL_CHECK(k < kLevels);
    const std::uint64_t lo = LevelBase(k);
    const std::uint64_t hi = 2 * lo;
    Level& level = table_[k];
    level.first = End(k);
    level.odd_bits.assign(lo / 128, 0);
    // Every odd base prime up to sqrt(hi) < lo is in a lower level.
    std::vector<std::uint64_t> bases;
    for (int j = 0; j < k; ++j) {
      for (std::uint32_t p : table_[j].primes) {
        if (p > 2 && std::uint64_t{p} * p < hi) bases.push_back(p);
      }
    }
    std::vector<std::uint8_t> composite(kSegment / 2);
    for (std::uint64_t seg = lo; seg < hi; seg += kSegment) {
      // composite[j] flags the odd number seg + 2j + 1.
      std::fill(composite.begin(), composite.end(), 0);
      const std::uint64_t seg_hi = std::min(seg + kSegment, hi);
      for (std::uint64_t p : bases) {
        if (p * p >= seg_hi) break;
        std::uint64_t m = std::max(p * p, (seg + p - 1) / p * p);
        if (m % 2 == 0) m += p;
        for (; m < seg_hi; m += 2 * p) composite[(m - seg) / 2] = 1;
      }
      for (std::uint64_t j = 0; j < (seg_hi - seg) / 2; ++j) {
        if (composite[j] == 0) {
          const std::uint64_t bit = (seg - lo) / 2 + j;
          level.odd_bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
        }
      }
    }
    std::size_t count = 0;
    for (std::uint64_t word : level.odd_bits) count += std::popcount(word);
    level.primes.reserve(count);
    for (std::size_t w = 0; w < level.odd_bits.size(); ++w) {
      for (std::uint64_t bits = level.odd_bits[w]; bits != 0;
           bits &= bits - 1) {
        const std::uint64_t bit = 64 * w + std::countr_zero(bits);
        level.primes.push_back(static_cast<std::uint32_t>(lo + 2 * bit + 1));
      }
    }
    levels_.store(k + 1);
    PL_CHECK(k + 1 < kLevels || End(k + 1) == PrimeSource::kLength);
    return k + 1;
  }

  std::mutex mu_;
  std::array<Level, kLevels> table_;
  /// Levels published in table_ (all primes below LevelBase(levels_)).
  std::atomic<int> levels_{0};
};

}  // namespace

std::uint64_t PrimeSource::Next() {
  PL_CHECK(cursor_ < kLength);
  return SievedStream::Get().At(cursor_++);
}

std::uint64_t PrimeSource::PrimeAt(std::size_t index) const {
  PL_CHECK(index < kLength);
  return SievedStream::Get().At(index);
}

void PrimeSource::SkipFirst(std::size_t count) {
  PL_CHECK(count <= kLength);
  cursor_ = std::max(cursor_, count);
}

std::optional<std::size_t> PrimeSource::IndexOf(std::uint64_t value) {
  if (!IsPrime(value)) return std::nullopt;
  return SievedStream::Get().Rank(value);
}

bool PrimeSource::IsPrime(std::uint64_t value) {
  return value < kBound && SievedStream::Get().IsPrime(value);
}

Status PrimeSource::CheckPrime(std::uint64_t value) {
  if (value >= kBound) {
    return Status::OutOfRange("is past the prime stream's bound 2^32");
  }
  if (!SievedStream::Get().IsPrime(value)) {
    return Status::InvalidArgument("is not a prime");
  }
  return Status::Ok();
}

Status PrimeSource::CheckRoom(std::size_t cursor, std::size_t draws) {
  if (cursor <= kLength && draws <= kLength - cursor) return Status::Ok();
  return Status::ResourceExhausted(
      "prime stream exhausted: " + std::to_string(draws) +
      " draws from cursor " + std::to_string(cursor) + " pass its " +
      std::to_string(kLength) + " primes below 2^32");
}

}  // namespace primelabel
