#ifndef PRIMELABEL_BIGINT_RECIP_H_
#define PRIMELABEL_BIGINT_RECIP_H_

#include <bit>
#include <cstdint>
#include <span>

namespace primelabel::recip {

// Möller–Granlund reciprocal division primitives ("Improved division by
// invariant integers", IEEE TC 2011), in the GMP invert_limb /
// invert_pi1 / udiv_qr_* formulations. These are the quotient/remainder
// building blocks of the 64-bit-limb engine: BigInt's Knuth division uses
// the 3-by-2 step for trial quotients, the word-sized reduction paths use
// the 2-by-1 step, and ReciprocalDivisor caches the reciprocals per
// divisor so no hardware divide runs per digit.
//
// Conventions: B = 2^64. "Normalized" means the divisor's top bit is set.

using U128 = unsigned __int128;

/// Reciprocal of a normalized single-word divisor:
/// floor((B^2 - 1) / d) - B.
inline std::uint64_t Reciprocal2by1(std::uint64_t d_norm) {
  return static_cast<std::uint64_t>(~U128{0} / d_norm);
}

struct QR2by1 {
  std::uint64_t q;
  std::uint64_t r;
};

/// One 2-by-1 division step: (q, r') = divmod(r * B + u, d) with d
/// normalized, r < d and v = Reciprocal2by1(d).
inline QR2by1 Div2by1(std::uint64_t r, std::uint64_t u, std::uint64_t d,
                      std::uint64_t v) {
  U128 qq = static_cast<U128>(v) * r + ((static_cast<U128>(r) << 64) | u);
  std::uint64_t q1 = static_cast<std::uint64_t>(qq >> 64) + 1;
  const std::uint64_t q0 = static_cast<std::uint64_t>(qq);
  std::uint64_t rem = u - q1 * d;
  if (rem > q0) {
    --q1;
    rem += d;
  }
  if (rem >= d) [[unlikely]] {
    ++q1;
    rem -= d;
  }
  return {q1, rem};
}

/// Remainder of a little-endian 64-bit limb span modulo a word divisor d
/// given in normalized form: d_norm = d << s with its top bit set and
/// v = Reciprocal2by1(d_norm). Normalizes the limbs on the fly and streams
/// 2-by-1 steps most-significant first, so no shifted copy is ever made.
/// ReciprocalDivisor calls it with the constants it caches per divisor.
inline std::uint64_t Mod2by1Normalized(std::span<const std::uint64_t> limbs,
                                       std::uint64_t d_norm, std::uint64_t v,
                                       int s) {
  if (limbs.empty()) return 0;
  std::uint64_t r = s == 0 ? 0 : limbs.back() >> (64 - s);  // < 2^s <= d_norm
  for (std::size_t i = limbs.size(); i-- > 0;) {
    const std::uint64_t low = (s != 0 && i > 0) ? limbs[i - 1] >> (64 - s) : 0;
    r = Div2by1(r, (limbs[i] << s) | low, d_norm, v).r;
  }
  return r >> s;
}

/// Remainder of a little-endian 64-bit limb span modulo d (any nonzero d)
/// for a divisor that changes from call to call: one hardware 128-by-64
/// divide per limb, most-significant first. Building a reciprocal first
/// (Mod2by1Normalized) only pays when it is reused: reducing 61,500 spans
/// by fresh 20-bit odd divisors on one pinned Xeon core took 0.24 ms
/// against 0.79 ms at one limb, 0.46 against 1.46 at two, and 27 against
/// 39 ms at 64, so there is no crossover to switch at.
inline std::uint64_t Mod2by1Spans(std::span<const std::uint64_t> limbs,
                                  std::uint64_t d) {
  std::uint64_t r = 0;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    r = static_cast<std::uint64_t>(((static_cast<U128>(r) << 64) | limbs[i]) %
                                   d);
  }
  return r;
}

/// Reciprocal of a normalized two-word divisor d1:d0 (d1's top bit set):
/// floor((B^3 - 1) / (d1 * B + d0)) - B. GMP's invert_pi1.
inline std::uint64_t Reciprocal3by2(std::uint64_t d1, std::uint64_t d0) {
  std::uint64_t v = Reciprocal2by1(d1);
  std::uint64_t p = d1 * v;
  p += d0;
  if (p < d0) {
    --v;
    if (p >= d1) {
      --v;
      p -= d1;
    }
    p -= d1;
  }
  const U128 t = static_cast<U128>(v) * d0;
  const std::uint64_t t1 = static_cast<std::uint64_t>(t >> 64);
  const std::uint64_t t0 = static_cast<std::uint64_t>(t);
  p += t1;
  if (p < t1) {
    --v;
    if (p > d1 || (p == d1 && t0 >= d0)) --v;
  }
  return v;
}

struct QR3by2 {
  std::uint64_t q;
  std::uint64_t r1;
  std::uint64_t r0;
};

/// One 3-by-2 division step: quotient digit and two-word remainder of
/// (n2:n1:n0) / (d1:d0), with d1 normalized, (n2:n1) < (d1:d0) and
/// v = Reciprocal3by2(d1, d0). GMP's udiv_qr_3by2.
inline QR3by2 Div3by2(std::uint64_t n2, std::uint64_t n1, std::uint64_t n0,
                      std::uint64_t d1, std::uint64_t d0, std::uint64_t v) {
  const U128 dd = (static_cast<U128>(d1) << 64) | d0;
  U128 qq = static_cast<U128>(v) * n2 + ((static_cast<U128>(n2) << 64) | n1);
  std::uint64_t q = static_cast<std::uint64_t>(qq >> 64);
  const std::uint64_t q0 = static_cast<std::uint64_t>(qq);
  const std::uint64_t r1_est = n1 - d1 * q;
  U128 r = ((static_cast<U128>(r1_est) << 64) | n0) - dd -
           static_cast<U128>(d0) * q;
  ++q;
  if (static_cast<std::uint64_t>(r >> 64) >= q0) {
    --q;
    r += dd;
  }
  if (r >= dd) [[unlikely]] {
    ++q;
    r -= dd;
  }
  return {q, static_cast<std::uint64_t>(r >> 64),
          static_cast<std::uint64_t>(r)};
}

}  // namespace primelabel::recip

#endif  // PRIMELABEL_BIGINT_RECIP_H_
