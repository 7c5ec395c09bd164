// Differential suite for the engine-v2 64-bit-limb BigInt: every
// arithmetic path is raced against an embedded 32-bit-limb reference
// implementation — a faithful miniature of the pre-v2 representation
// (sign-free magnitudes, base 2^32, schoolbook multiply, Knuth Algorithm
// D with add-back) — over randomized operands per size class plus the
// crafted Knuth D3/D6 corner cases (qhat overestimates, saturated trial
// quotients, the add-back row). Values cross between the two worlds
// through the limb-width-independent minimal little-endian byte encoding
// (ToMagnitudeBytes/FromMagnitudeBytes), the same contract that keeps the
// on-disk formats stable across the migration.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "util/rng.h"

namespace primelabel {
namespace {

// --- The 32-bit-limb reference implementation ------------------------------

/// Nonnegative bignum over base-2^32 digits, little-endian, no high zero
/// digits (empty = zero). Mirrors the pre-v2 BigInt magnitude layer.
using Ref = std::vector<std::uint32_t>;

void RefStrip(Ref* v) {
  while (!v->empty() && v->back() == 0) v->pop_back();
}

Ref RefAdd(const Ref& a, const Ref& b) {
  Ref out(std::max(a.size(), b.size()) + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t cur = carry;
    if (i < a.size()) cur += a[i];
    if (i < b.size()) cur += b[i];
    out[i] = static_cast<std::uint32_t>(cur);
    carry = cur >> 32;
  }
  RefStrip(&out);
  return out;
}

/// a - b; requires a >= b.
Ref RefSub(const Ref& a, const Ref& b) {
  Ref out(a.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t cur = static_cast<std::int64_t>(a[i]) - borrow -
                       (i < b.size() ? b[i] : 0);
    borrow = 0;
    if (cur < 0) {
      cur += std::int64_t{1} << 32;
      borrow = 1;
    }
    out[i] = static_cast<std::uint32_t>(cur);
  }
  RefStrip(&out);
  return out;
}

int RefCompare(const Ref& a, const Ref& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

Ref RefMul(const Ref& a, const Ref& b) {
  if (a.empty() || b.empty()) return {};
  Ref out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur =
          out[i + j] + static_cast<std::uint64_t>(a[i]) * b[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    out[i + b.size()] = static_cast<std::uint32_t>(carry);
  }
  RefStrip(&out);
  return out;
}

Ref RefShl(const Ref& a, int bits) {
  if (a.empty()) return {};
  const int digits = bits / 32, rem = bits % 32;
  Ref out(a.size() + static_cast<std::size_t>(digits) + 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t w = static_cast<std::uint64_t>(a[i]) << rem;
    out[i + digits] |= static_cast<std::uint32_t>(w);
    out[i + digits + 1] |= static_cast<std::uint32_t>(w >> 32);
  }
  RefStrip(&out);
  return out;
}

Ref RefShr(const Ref& a, int bits) {
  const std::size_t digits = static_cast<std::size_t>(bits) / 32;
  const int rem = bits % 32;
  if (digits >= a.size()) return {};
  Ref out(a.size() - digits, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t w = a[i + digits] >> rem;
    if (rem != 0 && i + digits + 1 < a.size()) {
      w |= static_cast<std::uint64_t>(a[i + digits + 1]) << (32 - rem);
    }
    out[i] = static_cast<std::uint32_t>(w);
  }
  RefStrip(&out);
  return out;
}

/// Knuth Algorithm D over base-2^32 digits, exactly as the pre-v2 engine
/// ran it: 2-digit trial quotients, the D3 overestimate correction loop,
/// and the D6 add-back. Returns {quotient, remainder}; b must be nonzero.
std::pair<Ref, Ref> RefDivMod(const Ref& a, const Ref& b) {
  if (RefCompare(a, b) < 0) return {{}, a};
  if (b.size() == 1) {
    Ref q(a.size(), 0);
    std::uint64_t r = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      std::uint64_t cur = (r << 32) | a[i];
      q[i] = static_cast<std::uint32_t>(cur / b[0]);
      r = cur % b[0];
    }
    RefStrip(&q);
    Ref rem;
    if (r != 0) rem.push_back(static_cast<std::uint32_t>(r));
    return {std::move(q), std::move(rem)};
  }
  // D1: normalize so the divisor's top digit has its high bit set.
  int shift = 0;
  for (std::uint32_t top = b.back(); !(top & 0x80000000u); top <<= 1) ++shift;
  Ref u = RefShl(a, shift);
  Ref v = RefShl(b, shift);
  const std::size_t n = v.size(), m = u.size() - n;
  u.resize(u.size() + 1, 0);  // the extra top digit D1 calls for
  Ref q(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: trial qhat from the top two dividend digits against v's top;
    // qhat <= q + 2 <= B + 1, so qhat * v[n-2] <= (B+1)(B-1) < 2^64.
    std::uint64_t top2 =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = top2 / v[n - 1];
    std::uint64_t rhat = top2 % v[n - 1];
    while (qhat > 0xffffffffull ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat > 0xffffffffull) break;
    }
    // D4: multiply-subtract.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      std::int64_t cur = static_cast<std::int64_t>(u[i + j]) - borrow -
                         static_cast<std::int64_t>(p & 0xffffffffull);
      borrow = 0;
      if (cur < 0) {
        cur += std::int64_t{1} << 32;
        borrow = 1;
      }
      u[i + j] = static_cast<std::uint32_t>(cur);
    }
    std::int64_t top = static_cast<std::int64_t>(u[j + n]) - borrow -
                       static_cast<std::int64_t>(carry);
    // D6: qhat was one too large after all — add v back once.
    if (top < 0) {
      --qhat;
      std::uint64_t c2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t cur = static_cast<std::uint64_t>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<std::uint32_t>(cur);
        c2 = cur >> 32;
      }
      top += static_cast<std::int64_t>(c2);
    }
    u[j + n] = static_cast<std::uint32_t>(top);
    q[j] = static_cast<std::uint32_t>(qhat);
  }
  u.resize(n);
  RefStrip(&u);
  RefStrip(&q);
  return {std::move(q), RefShr(u, shift)};
}

// --- Crossing between the worlds -------------------------------------------

std::vector<std::uint8_t> RefBytes(const Ref& v) {
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t d : v) {
    for (int b = 0; b < 4; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(d >> (8 * b)));
    }
  }
  while (!bytes.empty() && bytes.back() == 0) bytes.pop_back();
  return bytes;
}

BigInt ToBig(const Ref& v) { return BigInt::FromMagnitudeBytes(RefBytes(v)); }

Ref FromBig(const BigInt& value) {
  std::vector<std::uint8_t> bytes = value.ToMagnitudeBytes();
  Ref out((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[i / 4] |= static_cast<std::uint32_t>(bytes[i]) << (8 * (i % 4));
  }
  RefStrip(&out);
  return out;
}

Ref RandomRef(Rng& rng, std::size_t digits, unsigned ones_bias) {
  Ref v(digits);
  for (std::uint32_t& d : v) {
    d = rng.Chance(ones_bias) ? ~std::uint32_t{0}
                              : static_cast<std::uint32_t>(rng.Next());
  }
  RefStrip(&v);
  return v;
}

// --- The differential sweeps -----------------------------------------------

/// Size classes in 32-bit digits. 10'000 random pairs each; the classes
/// straddle every 64-bit strategy boundary (1-limb word path, odd digit
/// counts that leave a half-filled top limb, the Karatsuba crossover at
/// 16 64-bit limbs = 32 digits, and multi-chunk reduction sizes).
constexpr std::size_t kSizeClasses[] = {1, 2, 3, 4, 7, 8, 16, 32, 33, 64};
constexpr int kPairsPerClass = 10'000;

TEST(BigIntV2, AddSubDifferential) {
  Rng rng(20260801);
  for (std::size_t digits : kSizeClasses) {
    for (int trial = 0; trial < kPairsPerClass; ++trial) {
      const unsigned bias = trial % 4 == 0 ? 35 : 0;
      Ref a = RandomRef(rng, digits, bias);
      Ref b = RandomRef(rng, 1 + rng.Below(digits), bias);
      const BigInt ba = ToBig(a), bb = ToBig(b);
      ASSERT_EQ(FromBig(ba + bb), RefAdd(a, b))
          << "digits=" << digits << " trial=" << trial;
      if (RefCompare(a, b) >= 0) {
        ASSERT_EQ(FromBig(ba - bb), RefSub(a, b))
            << "digits=" << digits << " trial=" << trial;
      } else {
        ASSERT_EQ(FromBig(bb - ba), RefSub(b, a))
            << "digits=" << digits << " trial=" << trial;
      }
    }
  }
}

TEST(BigIntV2, MulDifferential) {
  Rng rng(20260802);
  for (std::size_t digits : kSizeClasses) {
    for (int trial = 0; trial < kPairsPerClass; ++trial) {
      const unsigned bias = trial % 4 == 0 ? 35 : 0;
      Ref a = RandomRef(rng, digits, bias);
      Ref b = RandomRef(rng, 1 + rng.Below(digits), bias);
      ASSERT_EQ(FromBig(ToBig(a) * ToBig(b)), RefMul(a, b))
          << "digits=" << digits << " trial=" << trial;
    }
  }
}

TEST(BigIntV2, ShiftDifferential) {
  Rng rng(20260803);
  for (std::size_t digits : kSizeClasses) {
    for (int trial = 0; trial < kPairsPerClass; ++trial) {
      Ref a = RandomRef(rng, digits, trial % 5 ? 0 : 30);
      // Shift counts hit sub-limb, limb-straddling and multi-limb cases
      // for both widths (the 64-bit limb boundary is the interesting one).
      const int bits = static_cast<int>(rng.Below(32 * digits + 70));
      const BigInt ba = ToBig(a);
      ASSERT_EQ(FromBig(ba << bits), RefShl(a, bits))
          << "digits=" << digits << " bits=" << bits;
      ASSERT_EQ(FromBig(ba >> bits), RefShr(a, bits))
          << "digits=" << digits << " bits=" << bits;
    }
  }
}

TEST(BigIntV2, DivModDifferential) {
  Rng rng(20260804);
  for (std::size_t digits : kSizeClasses) {
    for (int trial = 0; trial < kPairsPerClass; ++trial) {
      const unsigned bias = trial % 3 == 0 ? 40 : 0;
      // Dividend up to twice the class size; divisor up to the class
      // size — exercises every quotient length including 0.
      Ref a = RandomRef(rng, 1 + rng.Below(2 * digits), bias);
      Ref b = RandomRef(rng, 1 + rng.Below(digits), bias);
      if (b.empty()) {
        b.push_back(1 + static_cast<std::uint32_t>(rng.Below(1000)));
      }
      const auto [rq, rr] = RefDivMod(a, b);
      const auto [bq, br] = BigInt::DivMod(ToBig(a), ToBig(b));
      ASSERT_EQ(FromBig(bq), rq) << "digits=" << digits << " trial=" << trial;
      ASSERT_EQ(FromBig(br), rr) << "digits=" << digits << " trial=" << trial;
    }
  }
}

TEST(BigIntV2, KnuthD3D6CornerCases) {
  // Operand patterns chosen to force the Algorithm D corners in the
  // 64-bit engine: saturated trial quotients (qhat clamped to B-1), the
  // D3 correction loop, and the rare D6 add-back row. The classic
  // add-back trigger family: dividend top digits equal to the divisor's,
  // low digits arranged so the 3-by-2 estimate overshoots.
  struct Case {
    Ref a, b;
  };
  std::vector<Case> cases;
  // Saturated prefix: dividend top limbs equal divisor top limbs.
  cases.push_back(
      {Ref{0, 0, 0xffffffffu, 0xffffffffu, 0xfffffffeu, 0xffffffffu},
       Ref{0xffffffffu, 0xffffffffu, 0xffffffffu}});
  // Canonical add-back shapes (Hacker's Delight divmnu family, base
  // 2^32): qhat overestimates by 2.
  cases.push_back(
      {Ref{3, 0, 0x80000000u, 0x7fffffffu}, Ref{1, 0, 0x80000000u}});
  cases.push_back(
      {Ref{0, 0xfffffffeu, 0x80000000u}, Ref{0xffffffffu, 0x80000000u}});
  cases.push_back(
      {Ref{0, 0, 0x00000003u, 0x80000000u}, Ref{1, 0, 0x20000000u}});
  // 64-bit-limb-aligned variants of the same shapes (even digit counts),
  // so the corners trigger in native limb space, not only via odd tops.
  cases.push_back({Ref{0, 0, 0, 0, 0xffffffffu, 0xffffffffu, 0xfffffffeu,
                       0xffffffffu},
                   Ref{0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu}});
  cases.push_back(
      {Ref{3, 0, 0, 0, 0, 0x80000000u, 0xffffffffu, 0x7fffffffu},
       Ref{1, 0, 0, 0x80000000u}});
  // B^k - 1 against near-B^j divisors: every trial quotient saturates.
  for (std::size_t k : {4u, 6u, 8u, 12u}) {
    for (std::size_t j : {2u, 3u, 4u}) {
      if (j >= k) continue;
      Ref a(k, ~std::uint32_t{0});
      Ref b(j, 0);
      b[j - 1] = 0x80000000u;
      cases.push_back({a, b});
      b[0] = 1;
      cases.push_back({std::move(a), std::move(b)});
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [a, b] = cases[i];
    const auto [rq, rr] = RefDivMod(a, b);
    const auto [bq, br] = BigInt::DivMod(ToBig(a), ToBig(b));
    ASSERT_EQ(FromBig(bq), rq) << "case " << i;
    ASSERT_EQ(FromBig(br), rr) << "case " << i;
    // Round-trip invariant, independently of the reference: a = q*b + r.
    ASSERT_EQ(FromBig(bq * ToBig(b) + br), a) << "case " << i;
  }
}

}  // namespace
}  // namespace primelabel
