#ifndef PRIMELABEL_PRIMES_PRIME_SOURCE_H_
#define PRIMELABEL_PRIMES_PRIME_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace primelabel {

/// Monotone stream of primes backing the labeling schemes.
///
/// The prime number labeling scheme consumes each prime at most once
/// (Section 3.2: "each prime number can only be used once"), so the natural
/// interface is a stateful source handing out 2, 3, 5, 7, ... in order, plus
/// random access to the i-th prime for the analytic size model. The source
/// is seeded with a small sieve and extends itself on demand with
/// Miller–Rabin, so it never needs a bound declared up front — exactly the
/// property that makes the scheme dynamic.
///
/// The labeling schemes additionally reserve a prefix of small primes for
/// top-level nodes (Opt1); `SkipFirst()` / `PrimeAt()` support that without a
/// second source.
class PrimeSource {
 public:
  PrimeSource();

  /// Returns the next unused prime and advances the cursor.
  std::uint64_t Next();

  /// Returns the i-th prime (0-based: PrimeAt(0) == 2) without moving the
  /// cursor.
  std::uint64_t PrimeAt(std::size_t index);

  /// Advances the cursor past the first `count` primes (idempotent per call:
  /// moves the cursor to max(cursor, count)).
  void SkipFirst(std::size_t count);

  /// Index of `prime` in the stream (IndexOf(2) == 0), or nullopt when
  /// `prime` is not in the stream (0, 1 or a composite). Used to restore
  /// the cursor when adopting persisted labels: the next fresh prime must
  /// come after every prime already embedded in a label.
  std::optional<std::size_t> IndexOf(std::uint64_t prime);

  /// Number of primes handed out or skipped so far.
  std::size_t cursor() const { return cursor_; }

  /// Resets the cursor to the beginning of the stream.
  void Reset() { cursor_ = 0; }

 private:
  void EnsureCount(std::size_t count);

  std::vector<std::uint64_t> primes_;
  std::size_t cursor_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_PRIMES_PRIME_SOURCE_H_
