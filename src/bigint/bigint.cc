#include "bigint/bigint.h"

#include <algorithm>
#include <bit>
#include <cctype>

#include "bigint/recip.h"
#include "bigint/simd.h"

namespace primelabel {

namespace {

using recip::Div2by1;
using recip::Div3by2;
using recip::Reciprocal2by1;
using recip::Reciprocal3by2;
using U128 = unsigned __int128;

}  // namespace

BigInt::BigInt(std::int64_t value) {
  negative_ = value < 0;
  // Avoid overflow on INT64_MIN by working in unsigned space.
  std::uint64_t magnitude =
      negative_ ? ~static_cast<std::uint64_t>(value) + 1
                : static_cast<std::uint64_t>(value);
  if (magnitude != 0) limbs_.push_back(magnitude);
  Canonicalize();
}

BigInt BigInt::FromUint64(std::uint64_t value) {
  BigInt result;
  if (value != 0) result.limbs_.push_back(value);
  return result;
}

BigInt BigInt::FromLimbs(std::span<const std::uint64_t> limbs) {
  while (!limbs.empty() && limbs.back() == 0) {
    limbs = limbs.subspan(0, limbs.size() - 1);
  }
  BigInt result;
  result.limbs_.assign(limbs.begin(), limbs.end());
  return result;
}

Result<BigInt> BigInt::FromDecimalString(std::string_view text) {
  if (text.empty()) {
    return Status::ParseError("empty string is not a number");
  }
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-') {
    negative = true;
    i = 1;
    if (text.size() == 1) return Status::ParseError("'-' is not a number");
  }
  BigInt result;
  const BigInt ten(10);
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9') {
      return Status::ParseError(std::string("invalid digit '") + c + "'");
    }
    result = result * ten + BigInt(c - '0');
  }
  result.negative_ = negative;
  result.Canonicalize();
  return result;
}

int BigInt::Sign() const {
  if (limbs_.empty()) return 0;
  return negative_ ? -1 : 1;
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return static_cast<int>(limbs_.size() - 1) * kLimbBits +
         std::bit_width(limbs_.back());
}

int BigInt::TrailingZeroBits() const {
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    if (limbs_[i] != 0) {
      return static_cast<int>(i) * kLimbBits + std::countr_zero(limbs_[i]);
    }
  }
  return 0;
}

std::uint64_t BigInt::ToUint64() const {
  return limbs_.empty() ? 0 : limbs_[0];
}

std::vector<std::uint8_t> BigInt::ToMagnitudeBytes() const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(limbs_.size() * 8);
  for (Limb limb : limbs_) {
    for (int shift = 0; shift < kLimbBits; shift += 8) {
      bytes.push_back(static_cast<std::uint8_t>(limb >> shift));
    }
  }
  // Minimal encoding: the byte string is limb-width independent, which is
  // what keeps catalog/WAL images from the 32-bit-limb era readable.
  while (!bytes.empty() && bytes.back() == 0) bytes.pop_back();
  return bytes;
}

BigInt BigInt::FromMagnitudeBytes(const std::vector<std::uint8_t>& bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.limbs_[i / 8] |= static_cast<Limb>(bytes[i]) << (8 * (i % 8));
  }
  out.Canonicalize();
  return out;
}

std::string BigInt::ToDecimalString() const {
  if (limbs_.empty()) return "0";
  // Repeatedly divide the magnitude by 10^19 (the largest power of ten
  // below 2^64 — already normalized, so the 2-by-1 reciprocal steps need
  // no shift) and emit 19 digits per pass.
  std::vector<Limb> work = limbs_;
  constexpr Limb kChunk = 10000000000000000000ull;
  static_assert(kChunk >> 63 == 1, "chunk divisor must be pre-normalized");
  const std::uint64_t v = Reciprocal2by1(kChunk);
  std::string digits;
  while (!work.empty()) {
    std::uint64_t remainder = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      auto [q, r] = Div2by1(remainder, work[i], kChunk, v);
      work[i] = q;
      remainder = r;
    }
    Normalize(&work);
    for (int d = 0; d < 19; ++d) {
      digits.push_back(static_cast<char>('0' + remainder % 10));
      remainder /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigInt::ToHexString() const {
  if (limbs_.empty()) return "0";
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = kLimbBits - 4; shift >= 0; shift -= 4) {
      out.push_back(kHex[(limbs_[i] >> shift) & 0xF]);
    }
  }
  std::size_t first = out.find_first_not_of('0');
  out = out.substr(first);
  if (negative_) out.insert(out.begin(), '-');
  return out;
}

// --- Magnitude helpers -------------------------------------------------------

void BigInt::Normalize(std::vector<Limb>* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

void BigInt::Canonicalize() {
  Normalize(&limbs_);
  if (limbs_.empty()) negative_ = false;
}

int BigInt::CompareMagnitude(const std::vector<Limb>& a,
                             const std::vector<Limb>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<BigInt::Limb> BigInt::AddMagnitude(const std::vector<Limb>& a,
                                               const std::vector<Limb>& b) {
  const std::vector<Limb>& longer = a.size() >= b.size() ? a : b;
  const std::vector<Limb>& shorter = a.size() >= b.size() ? b : a;
  std::vector<Limb> out;
  out.reserve(longer.size() + 1);
  Limb carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    Wide sum = static_cast<Wide>(carry) + longer[i] +
               (i < shorter.size() ? shorter[i] : 0);
    out.push_back(static_cast<Limb>(sum));
    carry = static_cast<Limb>(sum >> kLimbBits);
  }
  if (carry != 0) out.push_back(carry);
  return out;
}

std::vector<BigInt::Limb> BigInt::SubMagnitude(const std::vector<Limb>& a,
                                               const std::vector<Limb>& b) {
  PL_CHECK(CompareMagnitude(a, b) >= 0);
  std::vector<Limb> out;
  out.reserve(a.size());
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Limb bi = i < b.size() ? b[i] : 0;
    const Limb d1 = a[i] - bi;
    const Limb borrow1 = a[i] < bi;
    const Limb d2 = d1 - borrow;
    const Limb borrow2 = d1 < borrow;
    out.push_back(d2);
    borrow = borrow1 | borrow2;
  }
  Normalize(&out);
  return out;
}

std::vector<BigInt::Limb> BigInt::MulSchoolbook(const std::vector<Limb>& a,
                                                const std::vector<Limb>& b) {
  // The row-wise limb kernel (bigint/simd.h). Karatsuba bottoms out
  // here, so its base case runs it too.
  std::vector<Limb> out;
  simd::MulLimbSpans(a, b, &out);
  return out;
}

std::vector<BigInt::Limb> BigInt::MulKaratsuba(const std::vector<Limb>& a,
                                               const std::vector<Limb>& b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return MulSchoolbook(a, b);
  }
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  auto split = [half](const std::vector<Limb>& v) {
    std::vector<Limb> low(v.begin(),
                          v.begin() + std::min(half, v.size()));
    std::vector<Limb> high;
    if (v.size() > half) high.assign(v.begin() + half, v.end());
    Normalize(&low);
    return std::make_pair(std::move(low), std::move(high));
  };
  auto [a0, a1] = split(a);
  auto [b0, b1] = split(b);

  std::vector<Limb> z0 = MulKaratsuba(a0, b0);
  std::vector<Limb> z2 = MulKaratsuba(a1, b1);
  std::vector<Limb> sum_a = AddMagnitude(a0, a1);
  std::vector<Limb> sum_b = AddMagnitude(b0, b1);
  std::vector<Limb> z1 = MulKaratsuba(sum_a, sum_b);
  z1 = SubMagnitude(z1, z0);
  z1 = SubMagnitude(z1, z2);

  // result = z0 + (z1 << half*64) + (z2 << 2*half*64)
  auto shifted = [](const std::vector<Limb>& v, std::size_t limbs) {
    if (v.empty()) return v;
    std::vector<Limb> out(limbs, 0);
    out.insert(out.end(), v.begin(), v.end());
    return out;
  };
  std::vector<Limb> result = AddMagnitude(z0, shifted(z1, half));
  result = AddMagnitude(result, shifted(z2, 2 * half));
  Normalize(&result);
  return result;
}

std::vector<BigInt::Limb> BigInt::MulMagnitude(const std::vector<Limb>& a,
                                               const std::vector<Limb>& b) {
  if (a.size() >= kKaratsubaThreshold && b.size() >= kKaratsubaThreshold) {
    return MulKaratsuba(a, b);
  }
  return MulSchoolbook(a, b);
}

std::pair<std::vector<BigInt::Limb>, std::vector<BigInt::Limb>>
BigInt::DivModMagnitude(const std::vector<Limb>& a,
                        const std::vector<Limb>& b) {
  PL_CHECK(!b.empty());
  if (CompareMagnitude(a, b) < 0) return {{}, a};

  // Fast path: single-limb divisor via streamed 2-by-1 reciprocal steps.
  if (b.size() == 1) {
    const int shift = kLimbBits - std::bit_width(b[0]);
    const Limb d = b[0] << shift;
    const std::uint64_t v = Reciprocal2by1(d);
    std::vector<Limb> quotient(a.size(), 0);
    Limb remainder = shift == 0 ? 0 : a.back() >> (kLimbBits - shift);
    for (std::size_t i = a.size(); i-- > 0;) {
      const Limb low =
          (shift != 0 && i > 0) ? a[i - 1] >> (kLimbBits - shift) : 0;
      auto [q, r] = Div2by1(remainder, (a[i] << shift) | low, d, v);
      quotient[i] = q;
      remainder = r;
    }
    Normalize(&quotient);
    std::vector<Limb> rem;
    if ((remainder >> shift) != 0) rem.push_back(remainder >> shift);
    return {std::move(quotient), std::move(rem)};
  }

  // Knuth Algorithm D with Möller–Granlund 3-by-2 trial quotients: one
  // reciprocal of the normalized top two divisor limbs, then each digit
  // comes from an exact 3-limb-by-2-limb division (error vs the full
  // quotient digit at most 1, fixed by the add-back).
  const int shift = kLimbBits - std::bit_width(b.back());
  auto shift_left = [](const std::vector<Limb>& v, int s) {
    std::vector<Limb> out(v.size() + 1, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] |= v[i] << s;
      if (s != 0) out[i + 1] = v[i] >> (kLimbBits - s);
    }
    return out;
  };
  std::vector<Limb> u = shift_left(a, shift);  // keeps the extra top limb
  std::vector<Limb> v = shift_left(b, shift);
  Normalize(&v);
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;  // quotient has at most m+1 limbs

  const Limb d1 = v[n - 1];
  const Limb d0 = v[n - 2];
  const std::uint64_t vrecip = Reciprocal3by2(d1, d0);

  std::vector<Limb> quotient(m + 1, 0);
  // Establish the loop invariant "top n limbs of u < v" (the 3-by-2 step's
  // precondition): if they are not, subtract v once and record a leading
  // quotient limb of 1.
  {
    bool top_ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (u[m + i] != v[i]) {
        top_ge = u[m + i] > v[i];
        break;
      }
    }
    if (top_ge) {
      Limb borrow = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Limb s1 = u[m + i] - v[i];
        const Limb borrow1 = u[m + i] < v[i];
        const Limb s2 = s1 - borrow;
        const Limb borrow2 = s1 < borrow;
        u[m + i] = s2;
        borrow = borrow1 | borrow2;
      }
      quotient[m] = 1;
    }
  }

  for (std::size_t j = m; j-- > 0;) {
    const Limb u2 = u[j + n];
    const Limb u1 = u[j + n - 1];
    const Limb u0 = u[j + n - 2];
    Limb qhat;
    if (u2 == d1 && u1 == d0) {
      // Saturated prefix: the 3-by-2 precondition (u2:u1) < (d1:d0) fails
      // only here, and the true digit is then B-1 or B-2 — start at B-1
      // and let the add-back settle it.
      qhat = ~Limb{0};
    } else {
      qhat = Div3by2(u2, u1, u0, d1, d0, vrecip).q;
    }
    // Multiply-and-subtract u[j..j+n] -= qhat * v.
    Limb borrow = 0;
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide product = static_cast<Wide>(qhat) * v[i] + carry;
      carry = static_cast<Limb>(product >> kLimbBits);
      const Limb plo = static_cast<Limb>(product);
      const Limb s1 = u[i + j] - plo;
      const Limb borrow1 = u[i + j] < plo;
      const Limb s2 = s1 - borrow;
      const Limb borrow2 = s1 < borrow;
      u[i + j] = s2;
      borrow = borrow1 | borrow2;
    }
    const Limb t1 = u[j + n] - carry;
    const Limb tb1 = u[j + n] < carry;
    const Limb t2 = t1 - borrow;
    const Limb tb2 = t1 < borrow;
    u[j + n] = t2;
    if (tb1 | tb2) {
      // qhat was one too large: add back.
      --qhat;
      Limb add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide sum = static_cast<Wide>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<Limb>(sum);
        add_carry = static_cast<Limb>(sum >> kLimbBits);
      }
      u[j + n] += add_carry;  // wraps the borrowed top limb back to zero
    }
    quotient[j] = qhat;
  }
  Normalize(&quotient);

  // Denormalize the remainder (low n limbs of u, shifted back).
  std::vector<Limb> remainder(u.begin(), u.begin() + n);
  if (shift != 0) {
    for (std::size_t i = 0; i + 1 < remainder.size(); ++i) {
      remainder[i] = (remainder[i] >> shift) |
                     (remainder[i + 1] << (kLimbBits - shift));
    }
    remainder.back() >>= shift;
  }
  Normalize(&remainder);
  return {std::move(quotient), std::move(remainder)};
}

// --- Signed operations -------------------------------------------------------

BigInt& BigInt::operator++() {
  PL_CHECK(!negative_);
  for (Limb& limb : limbs_) {
    if (++limb != 0) return *this;
  }
  limbs_.push_back(1);  // carried out of every limb, or the value was zero
  return *this;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.limbs_.empty()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out;
  if (negative_ == other.negative_) {
    out.limbs_ = AddMagnitude(limbs_, other.limbs_);
    out.negative_ = negative_;
  } else {
    int cmp = CompareMagnitude(limbs_, other.limbs_);
    if (cmp >= 0) {
      out.limbs_ = SubMagnitude(limbs_, other.limbs_);
      out.negative_ = negative_;
    } else {
      out.limbs_ = SubMagnitude(other.limbs_, limbs_);
      out.negative_ = other.negative_;
    }
  }
  out.Canonicalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const { return *this + (-other); }

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt out;
  out.limbs_ = MulMagnitude(limbs_, other.limbs_);
  out.negative_ = negative_ != other.negative_;
  out.Canonicalize();
  return out;
}

std::pair<BigInt, BigInt> BigInt::DivMod(const BigInt& dividend,
                                         const BigInt& divisor) {
  PL_CHECK(!divisor.IsZero());
  auto [q_mag, r_mag] = DivModMagnitude(dividend.limbs_, divisor.limbs_);
  BigInt quotient;
  quotient.limbs_ = std::move(q_mag);
  quotient.negative_ = dividend.negative_ != divisor.negative_;
  quotient.Canonicalize();
  BigInt remainder;
  remainder.limbs_ = std::move(r_mag);
  remainder.negative_ = dividend.negative_;
  remainder.Canonicalize();
  return {std::move(quotient), std::move(remainder)};
}

BigInt BigInt::operator/(const BigInt& other) const {
  return DivMod(*this, other).first;
}

namespace {

U128 MagnitudeToU128(const std::vector<std::uint64_t>& limbs) {
  U128 value = 0;
  if (limbs.size() > 1) value = static_cast<U128>(limbs[1]) << 64;
  if (!limbs.empty()) value |= limbs[0];
  return value;
}

/// Remainder of a limb span modulo a two-limb divisor d1:d0 (d1 != 0):
/// normalizes once, then streams 3-by-2 reciprocal steps most-significant
/// first — the allocation-free analogue of Mod2by1Spans one limb up.
U128 Mod3by2Spans(std::span<const std::uint64_t> limbs, std::uint64_t d1,
                  std::uint64_t d0) {
  const int s = 63 - (std::bit_width(d1) - 1);
  if (s != 0) {
    d1 = (d1 << s) | (d0 >> (64 - s));
    d0 <<= s;
  }
  const std::uint64_t v = Reciprocal3by2(d1, d0);
  std::uint64_t r1 = 0;
  std::uint64_t r0 =
      (s != 0 && !limbs.empty()) ? limbs.back() >> (64 - s) : 0;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    const std::uint64_t low = (s != 0 && i > 0) ? limbs[i - 1] >> (64 - s) : 0;
    const std::uint64_t w = (limbs[i] << s) | low;
    const auto step = Div3by2(r1, r0, w, d1, d0, v);
    r1 = step.r1;
    r0 = step.r0;
  }
  return ((static_cast<U128>(r1) << 64) | r0) >> s;
}

}  // namespace

BigInt BigInt::operator%(const BigInt& other) const {
  PL_CHECK(!other.IsZero());
  // Non-allocating fast paths. Node labels are typically at most a few
  // limbs (depth * ~20 bits), and the ancestor test of the prime scheme is
  // one mod per candidate row, so these paths carry the query benchmarks.
  if (other.limbs_.size() == 1) {
    BigInt out = FromUint64(ModU64(other.limbs_[0]));
    out.negative_ = negative_;
    out.Canonicalize();
    return out;
  }
  if (other.limbs_.size() == 2) {
    const U128 remainder =
        limbs_.size() <= 2
            ? MagnitudeToU128(limbs_) % MagnitudeToU128(other.limbs_)
            : Mod3by2Spans(limbs_, other.limbs_[1], other.limbs_[0]);
    BigInt out = FromUint64(static_cast<std::uint64_t>(remainder));
    if (remainder >> 64) {
      out.limbs_.push_back(static_cast<std::uint64_t>(remainder >> 64));
    }
    out.negative_ = negative_;
    out.Canonicalize();
    return out;
  }
  return DivMod(*this, other).second;
}

BigInt BigInt::operator<<(int bits) const {
  PL_CHECK(bits >= 0);
  if (IsZero() || bits == 0) return *this;
  const int limb_shift = bits / kLimbBits;
  const int bit_shift = bits % kLimbBits;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limb_shift, 0);
  Limb carry = 0;
  for (Limb limb : limbs_) {
    out.limbs_.push_back((limb << bit_shift) | carry);
    carry = bit_shift == 0 ? 0 : limb >> (kLimbBits - bit_shift);
  }
  if (carry != 0) out.limbs_.push_back(carry);
  out.Canonicalize();
  return out;
}

BigInt BigInt::operator>>(int bits) const {
  PL_CHECK(bits >= 0);
  if (IsZero() || bits == 0) return *this;
  const int limb_shift = bits / kLimbBits;
  const int bit_shift = bits % kLimbBits;
  if (static_cast<std::size_t>(limb_shift) >= limbs_.size()) return BigInt();
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.begin() + limb_shift, limbs_.end());
  if (bit_shift != 0) {
    for (std::size_t i = 0; i + 1 < out.limbs_.size(); ++i) {
      out.limbs_[i] = (out.limbs_[i] >> bit_shift) |
                      (out.limbs_[i + 1] << (kLimbBits - bit_shift));
    }
    out.limbs_.back() >>= bit_shift;
  }
  out.Canonicalize();
  return out;
}

std::uint64_t BigInt::ModU64(std::uint64_t divisor) const {
  PL_CHECK(divisor != 0);
  return recip::Mod2by1Spans(limbs_, divisor);
}

bool BigInt::IsDivisibleBy(const BigInt& divisor) const {
  PL_CHECK(!divisor.IsZero());
  if (divisor.limbs_.size() == 1) {
    return ModU64(divisor.limbs_[0]) == 0;
  }
  if (divisor.limbs_.size() == 2) {
    if (limbs_.size() <= 2) {
      return MagnitudeToU128(limbs_) % MagnitudeToU128(divisor.limbs_) == 0;
    }
    return Mod3by2Spans(limbs_, divisor.limbs_[1], divisor.limbs_[0]) == 0;
  }
  return (*this % divisor).IsZero();
}

BigInt BigInt::EuclideanMod(const BigInt& modulus) const {
  PL_CHECK(modulus.Sign() > 0);
  BigInt r = *this % modulus;
  if (r.Sign() < 0) r += modulus;
  return r;
}

BigInt BigInt::Pow(unsigned exponent) const {
  BigInt result(1);
  BigInt base = *this;
  while (exponent != 0) {
    if (exponent & 1u) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Sign() < 0 ? -a : a;
  BigInt y = b.Sign() < 0 ? -b : b;
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

EgcdResult BigInt::ExtendedGcd(const BigInt& a, const BigInt& b) {
  // Iterative extended Euclid on the signed values.
  BigInt old_r = a, r = b;
  BigInt old_x(1), x(0);
  BigInt old_y(0), y(1);
  while (!r.IsZero()) {
    auto [q, rem] = DivMod(old_r, r);
    old_r = std::move(r);
    r = std::move(rem);
    BigInt next_x = old_x - q * x;
    old_x = std::move(x);
    x = std::move(next_x);
    BigInt next_y = old_y - q * y;
    old_y = std::move(y);
    y = std::move(next_y);
  }
  if (old_r.Sign() < 0) {
    old_r = -old_r;
    old_x = -old_x;
    old_y = -old_y;
  }
  return {std::move(old_r), std::move(old_x), std::move(old_y)};
}

Result<BigInt> BigInt::ModInverse(const BigInt& value, const BigInt& modulus) {
  PL_CHECK(modulus > BigInt(1));
  EgcdResult e = ExtendedGcd(value, modulus);
  if (e.g != BigInt(1)) {
    return Status::InvalidArgument("value and modulus are not coprime");
  }
  return e.x.EuclideanMod(modulus);
}

BigInt BigInt::PowMod(const BigInt& base, const BigInt& exponent,
                      const BigInt& modulus) {
  PL_CHECK(exponent.Sign() >= 0);
  PL_CHECK(modulus.Sign() > 0);
  if (modulus == BigInt(1)) return BigInt(0);
  BigInt result(1);
  BigInt b = base.EuclideanMod(modulus);
  BigInt e = exponent;
  const BigInt two(2);
  while (!e.IsZero()) {
    if (e.IsOdd()) result = (result * b) % modulus;
    b = (b * b) % modulus;
    e = e >> 1;
  }
  return result;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) {
    return a.negative_ ? std::strong_ordering::less
                       : std::strong_ordering::greater;
  }
  int cmp = BigInt::CompareMagnitude(a.limbs_, b.limbs_);
  if (a.negative_) cmp = -cmp;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

}  // namespace primelabel
