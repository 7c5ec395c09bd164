#ifndef PRIMELABEL_BIGINT_BIGINT_H_
#define PRIMELABEL_BIGINT_BIGINT_H_

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace primelabel {

/// Arbitrary-precision signed integer.
///
/// Prime-number node labels are products of primes along a root-to-node path
/// and the simultaneous-congruence (SC) values of the Chinese Remainder
/// Theorem grow with the product of all moduli in a group, so 64-bit
/// arithmetic overflows almost immediately. BigInt provides exactly the
/// operations the labeling schemes and the CRT solver need: multiply, divmod,
/// gcd / extended gcd, modular inverse, modular exponentiation and bit-length
/// accounting (label sizes are reported in bits throughout the paper).
///
/// Representation: sign-magnitude with 64-bit little-endian limbs and
/// 128-bit intermediate arithmetic (unsigned __int128). The zero value has
/// an empty limb vector and positive sign. Multiplication switches to
/// Karatsuba above a threshold. Division runs Knuth's Algorithm D with
/// Möller–Granlund 3-by-2 reciprocal trial quotients (one precomputed
/// reciprocal per divisor, no per-digit hardware divide).
///
/// Serialization note: ToMagnitudeBytes/FromMagnitudeBytes emit and consume
/// *minimal little-endian byte strings*, which are limb-width independent —
/// every catalog row, WAL frame and fingerprint image written by the
/// earlier 32-bit-limb engine parses bit-identically (pinned by
/// catalog_compat_test against committed 32-bit-era fixtures).
///
/// The class is a regular value type: copyable, movable, equality- and
/// totally-ordered.
class BigInt {
 public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a signed 64-bit value.
  BigInt(std::int64_t value);  // NOLINT(runtime/explicit): numeric literal use

  /// Constructs from an unsigned 64-bit magnitude.
  static BigInt FromUint64(std::uint64_t value);

  /// Constructs a nonnegative value from little-endian 64-bit limbs
  /// (trailing zero limbs are stripped; an all-zero span is zero). The
  /// mutation-edge bridge from zero-copy arena label views
  /// (store/label_arena.h) back into owned BigInt arithmetic.
  static BigInt FromLimbs(std::span<const std::uint64_t> limbs);

  /// Parses a base-10 string with optional leading '-'. Rejects empty input,
  /// stray characters and "-0" is normalized to 0.
  static Result<BigInt> FromDecimalString(std::string_view text);

  BigInt(const BigInt&) = default;
  BigInt& operator=(const BigInt&) = default;
  BigInt(BigInt&&) = default;
  BigInt& operator=(BigInt&&) = default;

  /// True iff the value is zero.
  bool IsZero() const { return limbs_.empty(); }
  /// True iff the value is odd (zero is even).
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  /// -1, 0 or +1.
  int Sign() const;

  /// Number of bits in the magnitude; zero has bit length 0.
  int BitLength() const;

  /// Number of trailing zero bits of the magnitude (the exact power of two
  /// dividing the value); zero has 0 trailing-zero bits by convention. One
  /// of the fingerprint slots of the divisibility fast path: if
  /// TrailingZeroBits(x) > TrailingZeroBits(y) then x cannot divide y.
  int TrailingZeroBits() const;

  /// Read-only view of the magnitude limbs (64-bit, little-endian; empty
  /// for zero). The divisibility fast-path engine (bigint/reduction.h)
  /// iterates limbs directly instead of going through full-width
  /// arithmetic; everything else should use the arithmetic operators.
  std::span<const std::uint64_t> Magnitude() const { return limbs_; }

  /// True iff the magnitude fits in an unsigned 64-bit integer.
  bool FitsUint64() const { return limbs_.size() <= 1; }
  /// Returns the low 64 bits of the magnitude (caller checks FitsUint64 when
  /// an exact value is required).
  std::uint64_t ToUint64() const;

  /// Little-endian bytes of the magnitude (empty for zero). Used by the
  /// catalog to store labels as fixed-length binary columns.
  std::vector<std::uint8_t> ToMagnitudeBytes() const;

  /// Reconstructs a nonnegative value from little-endian magnitude bytes.
  static BigInt FromMagnitudeBytes(const std::vector<std::uint8_t>& bytes);

  /// Base-10 rendering with leading '-' for negatives.
  std::string ToDecimalString() const;
  /// Base-16 rendering (lowercase, no prefix) of the magnitude, with leading
  /// '-' for negatives.
  std::string ToHexString() const;

  // --- Arithmetic -----------------------------------------------------------

  BigInt operator-() const;
  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated (C-style) quotient; divisor must be nonzero.
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of the dividend (C semantics); divisor nonzero.
  BigInt operator%(const BigInt& other) const;

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }
  BigInt& operator/=(const BigInt& other) { return *this = *this / other; }
  BigInt& operator%=(const BigInt& other) { return *this = *this % other; }

  /// Prefix increment of a nonnegative value, in place: carries through
  /// the existing limbs with no temporary, allocating only when a carry
  /// outgrows the limb vector's capacity. The SC table's shift-by-one
  /// update (core/sc_table.h) runs on it.
  BigInt& operator++();

  /// Computes quotient and remainder in one pass (remainder has the sign of
  /// the dividend). Divisor must be nonzero.
  static std::pair<BigInt, BigInt> DivMod(const BigInt& dividend,
                                          const BigInt& divisor);

  /// Left shift of the magnitude by `bits` (sign preserved).
  BigInt operator<<(int bits) const;
  /// Arithmetic-free right shift of the magnitude by `bits` (sign preserved;
  /// shifting a negative rounds toward zero, unlike two's-complement >>).
  BigInt operator>>(int bits) const;

  /// True iff `divisor` divides this value exactly. Divisor must be nonzero.
  /// Allocation-free for values up to 128 bits or divisors up to 64 bits —
  /// the hot path of the prime scheme's ancestor test.
  bool IsDivisibleBy(const BigInt& divisor) const;

  /// Magnitude modulo a 64-bit divisor (> 0), allocation-free. Used by the
  /// SC table's `sc mod self-label` order recovery.
  std::uint64_t ModU64(std::uint64_t divisor) const;

  /// Nonnegative value congruent to *this modulo `modulus` (modulus > 0).
  BigInt EuclideanMod(const BigInt& modulus) const;

  /// this^exponent for small nonnegative exponents.
  BigInt Pow(unsigned exponent) const;

  /// Greatest common divisor of |a| and |b|; Gcd(0, 0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Extended gcd: returns g = gcd(|a|, |b|) and coefficients x, y with
  /// a*x + b*y == g. (EgcdResult is declared after the class; the members
  /// need the complete type.)
  static struct EgcdResult ExtendedGcd(const BigInt& a, const BigInt& b);

  /// Modular inverse of `value` mod `modulus` (modulus > 1). Returns
  /// kInvalidArgument when gcd(value, modulus) != 1.
  static Result<BigInt> ModInverse(const BigInt& value, const BigInt& modulus);

  /// base^exponent mod modulus with exponent >= 0 and modulus > 0.
  static BigInt PowMod(const BigInt& base, const BigInt& exponent,
                       const BigInt& modulus);

  // --- Comparison -----------------------------------------------------------

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.negative_ == b.negative_ && a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  /// Streams the decimal rendering (for gtest failure messages).
  friend std::ostream& operator<<(std::ostream& os, const BigInt& v) {
    return os << v.ToDecimalString();
  }

 private:
  using Limb = std::uint64_t;
  using Wide = unsigned __int128;
  static constexpr int kLimbBits = 64;
  /// Limb count above which multiplication uses Karatsuba (same ~1024-bit
  /// crossover point as the 32-bit engine's threshold of 32).
  static constexpr std::size_t kKaratsubaThreshold = 16;

  static int CompareMagnitude(const std::vector<Limb>& a,
                              const std::vector<Limb>& b);
  static std::vector<Limb> AddMagnitude(const std::vector<Limb>& a,
                                        const std::vector<Limb>& b);
  /// Requires |a| >= |b|.
  static std::vector<Limb> SubMagnitude(const std::vector<Limb>& a,
                                        const std::vector<Limb>& b);
  static std::vector<Limb> MulMagnitude(const std::vector<Limb>& a,
                                        const std::vector<Limb>& b);
  static std::vector<Limb> MulSchoolbook(const std::vector<Limb>& a,
                                         const std::vector<Limb>& b);
  static std::vector<Limb> MulKaratsuba(const std::vector<Limb>& a,
                                        const std::vector<Limb>& b);
  /// Long division of magnitudes; returns {quotient, remainder}.
  static std::pair<std::vector<Limb>, std::vector<Limb>> DivModMagnitude(
      const std::vector<Limb>& a, const std::vector<Limb>& b);
  static void Normalize(std::vector<Limb>* limbs);
  void Canonicalize();

  bool negative_ = false;
  std::vector<Limb> limbs_;  // little-endian; empty means zero
};

/// Result of BigInt::ExtendedGcd: g = gcd(|a|, |b|) with a*x + b*y == g.
struct EgcdResult {
  BigInt g;
  BigInt x;
  BigInt y;
};

}  // namespace primelabel

#endif  // PRIMELABEL_BIGINT_BIGINT_H_
