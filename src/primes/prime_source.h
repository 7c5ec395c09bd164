#ifndef PRIMELABEL_PRIMES_PRIME_SOURCE_H_
#define PRIMELABEL_PRIMES_PRIME_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "util/status.h"

namespace primelabel {

/// Monotone stream of primes backing the labeling schemes.
///
/// The prime number labeling scheme consumes each prime at most once
/// (Section 3.2: "each prime number can only be used once"), so the natural
/// interface is a stateful source handing out 2, 3, 5, 7, ... in order, plus
/// random access to the i-th prime for the analytic size model.
///
/// The stream is bounded: it holds exactly the kLength primes below kBound
/// (2^32), so every self-label fits in 32 bits. Its primes come from one
/// sieved table shared by every source in the process. The table starts
/// as a classical sieve below 2^15 and grows by a segmented sieve that
/// doubles its limit, allocating as it goes, so Next, PrimeAt, IndexOf and
/// IsPrime are lookups once the table reaches the value or index asked
/// for, and memory follows the largest prime looked up. A source is only
/// its cursor; copying one is free. The bound is what lets persisted
/// values be checked before the table grows: a self-label or SC modulus at
/// or past kBound, or a journaled cursor with no room after it, is
/// rejected in O(1) (CheckPrime, CheckRoom) instead of sieving towards it.
///
/// A store draws from the stream over its whole life: one prime per insert
/// (plus one per relabeled node), never returned on delete. The bound is
/// therefore a cap on a store's lifetime writes; DESIGN.md section 19 gives
/// it in days at a measured write rate.
///
/// The labeling schemes additionally reserve a prefix of small primes for
/// top-level nodes (Opt1); `SkipFirst()` / `PrimeAt()` support that without a
/// second source.
class PrimeSource {
 public:
  /// Every prime of the stream is below this bound.
  static constexpr std::uint64_t kBound = std::uint64_t{1} << 32;
  /// pi(kBound): the number of primes the stream holds.
  static constexpr std::size_t kLength = 203'280'221;

  /// Returns the next unused prime and advances the cursor. The cursor
  /// must be below kLength: writers reserve room with CheckRoom first.
  std::uint64_t Next();

  /// Returns the i-th prime (0-based: PrimeAt(0) == 2) without moving the
  /// cursor; index < kLength.
  std::uint64_t PrimeAt(std::size_t index) const;

  /// Advances the cursor past the first `count` primes (idempotent per call:
  /// moves the cursor to max(cursor, count)); count <= kLength. Sieves
  /// nothing: the table grows when a prime is drawn.
  void SkipFirst(std::size_t count);

  /// Index of `value` in the stream (IndexOf(2) == 0), or nullopt when
  /// `value` is not in the stream: 0, 1, a composite, or a value at or
  /// past kBound, which is answered without growing the table. Used to
  /// restore the cursor when adopting persisted labels: the next fresh
  /// prime must come after every prime already embedded in a label.
  static std::optional<std::size_t> IndexOf(std::uint64_t value);

  /// True when `value` is a prime of the stream (false at or past kBound).
  static bool IsPrime(std::uint64_t value);

  /// The check every persisted self-label and SC modulus takes: Ok when
  /// `value` is a prime of the stream; kOutOfRange when it is at or past
  /// kBound, decided before the table grows; kInvalidArgument when it is
  /// not a prime. The message reads as a predicate ("is not a prime"), for
  /// callers to prefix with what the value is.
  static Status CheckPrime(std::uint64_t value);

  /// Ok when `draws` more primes follow stream index `cursor`, else
  /// kResourceExhausted. O(1): the check a writer takes before an insert
  /// and replay takes before pinning a journaled cursor.
  static Status CheckRoom(std::size_t cursor, std::size_t draws);

  /// Number of primes handed out or skipped so far.
  std::size_t cursor() const { return cursor_; }

  /// Resets the cursor to the beginning of the stream.
  void Reset() { cursor_ = 0; }

 private:
  std::size_t cursor_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_PRIMES_PRIME_SOURCE_H_
