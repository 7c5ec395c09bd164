#include "bigint/reduction.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>

#include "bigint/recip.h"
#include "bigint/simd.h"

namespace primelabel {
namespace {

using U128 = unsigned __int128;

/// -d0^-1 mod 2^64 for odd d0, by Newton iteration: an odd d satisfies
/// d * d == 1 (mod 8), and each step doubles the valid bits.
std::uint64_t NegInverse64(std::uint64_t d0) {
  std::uint64_t inv = d0;                  // 3 bits
  inv *= 2 - d0 * inv;                     // 6
  inv *= 2 - d0 * inv;                     // 12
  inv *= 2 - d0 * inv;                     // 24
  inv *= 2 - d0 * inv;                     // 48
  inv *= 2 - d0 * inv;                     // 96 >= 64
  assert(d0 * inv == 1 && "Newton inverse failed");
  return std::uint64_t{0} - inv;
}

/// The REDC divisibility sweep over t, prefilled with the
/// dividend in its low m limbs and zero above (size >= m + d.size() + 1):
/// each step zeroes t[i] by adding the multiple u * d * B^i with
/// u = t[i] * neg_inv mod B. Afterwards t = C * B^m with
/// C * B^m ≡ x (mod d) and C <= d (t < x + B^m * d and x < B^m), so
/// d | x iff C is 0 or d itself. gcd(B, d) = 1 makes the test exact.
bool RedcSweepDivides(std::uint64_t* t, std::size_t tsize, std::size_t m,
                      std::span<const std::uint64_t> d,
                      std::uint64_t neg_inv) {
  const std::size_t nd = d.size();
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t u = t[i] * neg_inv;
    U128 carry = 0;
    for (std::size_t j = 0; j < nd; ++j) {
      const U128 cur = t[i + j] + static_cast<U128>(u) * d[j] + carry;
      t[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    for (std::size_t p = i + nd; carry != 0; ++p) {
      assert(p < tsize && "REDC accumulator exceeded its bound");
      const U128 cur = t[p] + carry;
      t[p] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
  }
  std::size_t top = tsize;
  while (top > m && t[top - 1] == 0) --top;
  const std::size_t nc = top - m;
  if (nc == 0) return true;
  if (nc != nd) return false;
  for (std::size_t i = nd; i-- > 0;) {
    if (t[m + i] != d[i]) return false;
  }
  return true;
}

/// odd = x >> tz (x nonzero, tz = its trailing zero bits), limb by limb
/// with a window shift; minimal on exit.
void OddPartOf(LimbSpan x, int tz, std::vector<std::uint64_t>* odd) {
  const std::size_t zero_limbs = static_cast<std::size_t>(tz) / 64;
  const int bit_shift = tz % 64;
  odd->clear();
  for (std::size_t i = zero_limbs; i < x.size(); ++i) {
    std::uint64_t w = x[i] >> bit_shift;
    if (bit_shift != 0 && i + 1 < x.size()) w |= x[i + 1] << (64 - bit_shift);
    odd->push_back(w);
  }
  while (odd->size() > 1 && odd->back() == 0) odd->pop_back();
}

/// prime_mask bit for a prime self-label, or 0 when it is beyond the
/// tracked range (> 311).
std::uint64_t MaskBitOf(std::uint64_t self) {
  if (self > kFingerprintPrimes.back()) return 0;
  auto it = std::lower_bound(kFingerprintPrimes.begin(),
                             kFingerprintPrimes.end(), self);
  if (it == kFingerprintPrimes.end() || *it != self) return 0;
  return std::uint64_t{1} << (it - kFingerprintPrimes.begin());
}

/// Divisibility-by-constant magic for each fingerprint prime: for odd p,
/// r % p == 0  iff  r * inv <= limit with inv = p^-1 mod 2^64 and
/// limit = floor((2^64 - 1) / p) — one multiply instead of a hardware
/// division per prime when deriving prime_mask from a chunk residue.
struct PrimeDivMagic {
  std::uint64_t inv = 0;
  std::uint64_t limit = 0;
};

consteval std::array<PrimeDivMagic, kFingerprintPrimes.size()>
BuildPrimeDivMagic() {
  std::array<PrimeDivMagic, kFingerprintPrimes.size()> magic{};
  for (std::size_t i = 0; i < kFingerprintPrimes.size(); ++i) {
    const std::uint64_t p = kFingerprintPrimes[i];
    if (p == 2) continue;  // handled by a parity check
    std::uint64_t inv = p;
    // Newton iteration doubles correct low bits: 5 rounds from ~3 to 64+.
    for (int round = 0; round < 5; ++round) inv *= 2 - p * inv;
    magic[i] = {inv, ~std::uint64_t{0} / p};
  }
  return magic;
}

inline constexpr auto kPrimeDivMagic = BuildPrimeDivMagic();

/// Fills the fingerprint of `value` from its chunk residues. The chunk
/// moduli are squarefree, so the primes of a chunk that divide the label
/// are exactly those that divide its residue. Matches the naive per-prime
/// `residue % p == 0` loop bit for bit.
void FinishFingerprint(const BigInt& value,
                       std::span<const std::uint64_t> residues,
                       LabelFingerprint* fp) {
  for (int j = 0; j < kFingerprintChunks; ++j) {
    const std::uint64_t r = residues[static_cast<std::size_t>(j)];
    const FingerprintChunk& chunk =
        kFingerprintChunkTable[static_cast<std::size_t>(j)];
    for (int k = 0; k < chunk.count; ++k) {
      const std::size_t i = static_cast<std::size_t>(chunk.first + k);
      const bool divides = kFingerprintPrimes[i] == 2
                               ? (r & 1) == 0
                               : r * kPrimeDivMagic[i].inv <=
                                     kPrimeDivMagic[i].limit;
      if (divides) fp->prime_mask |= std::uint64_t{1} << i;
    }
  }
  fp->bit_length = value.BitLength();
  fp->trailing_zeros = value.TrailingZeroBits();
}

}  // namespace

// --- Layer 1 ---------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_fingerprint_compute_count{0};
}  // namespace

std::uint64_t FingerprintComputeCount() {
  return g_fingerprint_compute_count.load(std::memory_order_relaxed);
}

std::uint64_t FingerprintConfigHash() {
  // FNV-1a over every datum the fingerprint semantics depend on. The
  // values are compile-time constants, so the hash is a process-wide
  // constant too; it only changes when the configuration itself does.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(kFingerprintPrimes.size());
  for (std::uint32_t p : kFingerprintPrimes) mix(p);
  mix(kFingerprintChunks);
  for (const FingerprintChunk& c : kFingerprintChunkTable) {
    mix(c.product);
    mix(static_cast<std::uint64_t>(c.first));
    mix(static_cast<std::uint64_t>(c.count));
  }
  return h;
}

LabelFingerprint FingerprintOf(const BigInt& value) {
  g_fingerprint_compute_count.fetch_add(1, std::memory_order_relaxed);
  LabelFingerprint fp;
  std::array<std::uint64_t, kFingerprintChunks> residues;
  simd::ChunkResidues(value.Magnitude(), residues);
  FinishFingerprint(value, residues, &fp);
  return fp;
}

void FingerprintLabels(std::span<const BigInt> labels,
                       std::span<LabelFingerprint> out) {
  assert(out.size() >= labels.size());
  g_fingerprint_compute_count.fetch_add(labels.size(),
                                        std::memory_order_relaxed);
  std::array<std::uint64_t, kFingerprintChunks> residues;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    simd::ChunkResidues(labels[i].Magnitude(), residues);
    FinishFingerprint(labels[i], residues, &out[i]);
  }
}

LabelFingerprint ExtendFingerprintByPrime(const LabelFingerprint& parent,
                                          std::uint64_t self,
                                          const BigInt& child_label) {
  LabelFingerprint fp;
  // self is prime, so the small primes dividing parent*self are exactly
  // those dividing the parent, plus self when it is in the tracked range.
  fp.prime_mask = parent.prime_mask | MaskBitOf(self);
  fp.bit_length = child_label.BitLength();
  fp.trailing_zeros = child_label.TrailingZeroBits();
  return fp;
}

// --- Layer 2 ---------------------------------------------------------------

int TrailingZeroBitsOf(LimbSpan magnitude) {
  for (std::size_t i = 0; i < magnitude.size(); ++i) {
    if (magnitude[i] != 0) {
      return static_cast<int>(i) * 64 + std::countr_zero(magnitude[i]);
    }
  }
  return 0;
}

bool IsProductOf(LimbSpan product, LimbSpan factor, std::uint64_t multiplier) {
  // Minimal magnitudes: the product has the factor's limb count, plus one
  // exactly when it carries out of the factor's top limb.
  if (product.size() != factor.size() && product.size() != factor.size() + 1) {
    return false;
  }
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < factor.size(); ++i) {
    const unsigned __int128 limb =
        static_cast<unsigned __int128>(factor[i]) * multiplier + carry;
    if (static_cast<std::uint64_t>(limb) != product[i]) return false;
    carry = static_cast<std::uint64_t>(limb >> 64);
  }
  return product.size() == factor.size() ? carry == 0
                                         : carry == product[factor.size()];
}

void ReciprocalDivisor::Assign(LimbSpan divisor) {
  while (!divisor.empty() && divisor.back() == 0) {
    divisor = divisor.first(divisor.size() - 1);
  }
  assert(!divisor.empty() && "ReciprocalDivisor requires a nonzero divisor");
  limbs_ = divisor.size();
  if (limbs_ == 1) {
    word_shift_ = std::countl_zero(divisor[0]);
    word_normalized_ = divisor[0] << word_shift_;
    word_reciprocal_ = recip::Reciprocal2by1(word_normalized_);
    return;
  }
  // divisor = 2^e * odd; an exact division test splits along that
  // factorization (the factors are coprime).
  divisor_trailing_zeros_ = TrailingZeroBitsOf(divisor);
  OddPartOf(divisor, divisor_trailing_zeros_, &odd_divisor_);
  mont_inv_ = NegInverse64(odd_divisor_[0]);
}

bool ReciprocalDivisor::PowerOfTwoPartDivides(LimbSpan x) const {
  // 2^e | x: e whole zero limbs plus e % 64 low bits of the next.
  const std::size_t e_limbs =
      static_cast<std::size_t>(divisor_trailing_zeros_) / 64;
  const int e_bits = divisor_trailing_zeros_ % 64;
  for (std::size_t i = 0; i < e_limbs; ++i) {
    if (x[i] != 0) return false;  // x.size() >= limbs_ > e_limbs
  }
  return e_bits == 0 ||
         (x[e_limbs] & ((std::uint64_t{1} << e_bits) - 1)) == 0;
}

bool ReciprocalDivisor::MontgomeryDivides(LimbSpan x) {
  if (!PowerOfTwoPartDivides(x)) return false;
  const std::vector<std::uint64_t>& d = odd_divisor_;
  if (d.size() == 1 && d[0] == 1) return true;  // divisor was a power of two
  const std::size_t m = x.size();
  mont_acc_.assign(m + d.size() + 1, 0);
  std::copy(x.begin(), x.end(), mont_acc_.begin());
  return RedcSweepDivides(mont_acc_.data(), mont_acc_.size(), m, d,
                          mont_inv_);
}

bool ReciprocalDivisor::Divides(LimbSpan mag) {
  assert(assigned());
  if (mag.empty()) return true;  // zero dividend
  if (limbs_ == 1) {
    return recip::Mod2by1Normalized(mag, word_normalized_, word_reciprocal_,
                                    word_shift_) == 0;
  }
  if (mag.size() < limbs_) return false;  // 0 < |dividend| < divisor
  return MontgomeryDivides(mag);
}

}  // namespace primelabel
