#include "bigint/simd.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "bigint/reduction.h"

namespace primelabel::simd {
namespace {

using U128 = unsigned __int128;

void StripHighZeros(std::vector<std::uint64_t>* v) {
  while (!v->empty() && v->back() == 0) v->pop_back();
}

// --- Residue power tables ---------------------------------------------------

static_assert(kChunkCount == kFingerprintChunks,
              "chunk-residue lane count drifted from the fingerprint table");

/// Precomputed weights for the one-sweep residue kernel. Each 64-bit limb
/// is read as two 32-bit digits, and digit i of a block weighs
/// w[j * kBlockDigits + i] = 2^(32*i) mod product_j. Magnitudes longer
/// than kBlockLimbs fold block by block through block_factor (Horner over
/// blocks), so the table stays a fixed 56 KiB regardless of label size.
struct ResidueTables {
  static constexpr std::size_t kBlockLimbs = 512;
  static constexpr std::size_t kBlockDigits = 2 * kBlockLimbs;

  std::vector<std::uint64_t> w;  ///< kChunkCount rows of kBlockDigits weights
  /// 2^(64*kBlockLimbs) mod product_j: the Horner factor between blocks.
  std::array<std::uint64_t, kChunkCount> block_factor{};
};

const ResidueTables& Tables() {
  static const ResidueTables* tables = [] {
    auto* t = new ResidueTables;
    t->w.assign(kChunkCount * ResidueTables::kBlockDigits, 0);
    for (std::size_t j = 0; j < kChunkCount; ++j) {
      const std::uint64_t m = kFingerprintChunkTable[j].product;
      std::uint64_t power = 1 % m;
      for (std::size_t i = 0; i < ResidueTables::kBlockDigits; ++i) {
        t->w[j * ResidueTables::kBlockDigits + i] = power;
        power = static_cast<std::uint64_t>((static_cast<U128>(power) << 32) % m);
      }
      t->block_factor[j] = power;  // one step past the last digit
    }
    return t;
  }();
  return *tables;
}

}  // namespace

void MulLimbSpans(std::span<const std::uint64_t> a,
                  std::span<const std::uint64_t> b,
                  std::vector<std::uint64_t>* out) {
  if (a.empty() || b.empty()) {
    out->clear();
    return;
  }
  out->assign(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    U128 carry = 0;
    const std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const U128 cur = (*out)[i + j] + static_cast<U128>(ai) * b[j] + carry;
      (*out)[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    (*out)[i + b.size()] = static_cast<std::uint64_t>(carry);
  }
  StripHighZeros(out);
}

void ChunkResidues(std::span<const std::uint64_t> magnitude,
                   std::span<std::uint64_t> out) {
  assert(out.size() >= static_cast<std::size_t>(kChunkCount));
  const ResidueTables& t = Tables();
  const std::size_t blocks =
      (magnitude.size() + ResidueTables::kBlockLimbs - 1) /
      ResidueTables::kBlockLimbs;
  for (std::size_t j = 0; j < static_cast<std::size_t>(kChunkCount); ++j) {
    const std::uint64_t m = kFingerprintChunkTable[j].product;
    const std::uint64_t* w = t.w.data() + j * ResidueTables::kBlockDigits;
    std::uint64_t r = 0;
    // Horner over blocks, most significant first. Within a block, the dot
    // product of digits and weights is reduced once at the end: every
    // term is < 2^96 and a block has 2^10 of them, so the 128-bit
    // accumulator cannot overflow. Each Horner step keeps both factors
    // below m, so its 128-bit intermediate cannot overflow either.
    for (std::size_t blk = blocks; blk-- > 0;) {
      const std::size_t first = blk * ResidueTables::kBlockLimbs;
      const std::size_t n =
          std::min(ResidueTables::kBlockLimbs, magnitude.size() - first);
      U128 acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t limb = magnitude[first + i];
        acc += static_cast<U128>(limb & 0xffffffffu) * w[2 * i];
        acc += static_cast<U128>(limb >> 32) * w[2 * i + 1];
      }
      const std::uint64_t block_res = static_cast<std::uint64_t>(acc % m);
      r = static_cast<std::uint64_t>(
          (static_cast<U128>(r) * t.block_factor[j] + block_res) % m);
    }
    out[j] = r;
  }
}

unsigned RedcDividesBatch(std::span<const RedcLane> lanes) {
  assert(!lanes.empty() && lanes.size() <= kRedcLanes);
  thread_local std::vector<std::uint64_t> buf;
  std::size_t offset[kRedcLanes + 1] = {};
  std::size_t mmax = 0;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    const std::size_t m = lanes[k].dividend.size();
    offset[k + 1] = offset[k] + m + lanes[k].odd_divisor.size() + 1;
    mmax = std::max(mmax, m);
  }
  buf.assign(offset[lanes.size()], 0);
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    std::copy(lanes[k].dividend.begin(), lanes[k].dividend.end(),
              buf.begin() + static_cast<std::ptrdiff_t>(offset[k]));
  }
  // Step loop outside, lane loop inside: each lane's REDC sweep is one
  // serial carry chain, but the lanes' chains are independent, so
  // interleaving them per step keeps the out-of-order core fed.
  for (std::size_t i = 0; i < mmax; ++i) {
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const RedcLane& lane = lanes[k];
      if (i >= lane.dividend.size()) continue;
      std::uint64_t* t = buf.data() + offset[k];
      const std::size_t nd = lane.odd_divisor.size();
      // u makes t[i] + u * d ≡ 0 (mod 2^64): the step clears one limb
      // and divides the residue class by B.
      const std::uint64_t u = t[i] * lane.neg_inv;
      U128 carry = 0;
      for (std::size_t j = 0; j < nd; ++j) {
        const U128 s = static_cast<U128>(t[i + j]) +
                       static_cast<U128>(u) * lane.odd_divisor[j] + carry;
        t[i + j] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
      std::uint64_t c = static_cast<std::uint64_t>(carry);
      for (std::size_t pos = i + nd; c != 0; ++pos) {
        assert(pos < lane.dividend.size() + nd + 1);
        t[pos] += c;
        c = t[pos] < c ? 1u : 0u;
      }
    }
  }
  // After m steps t = (x + q * d) / B^m ≤ d sits at t[m .. m + nd], and
  // d | x iff that residue is 0 or d exactly.
  unsigned verdict = 0;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    const RedcLane& lane = lanes[k];
    const std::uint64_t* t =
        buf.data() + offset[k] + lane.dividend.size();
    bool zero = true;
    bool eq = true;
    for (std::size_t j = 0; j < lane.odd_divisor.size(); ++j) {
      zero = zero && t[j] == 0;
      eq = eq && t[j] == lane.odd_divisor[j];
    }
    const std::uint64_t top = t[lane.odd_divisor.size()];
    zero = zero && top == 0;
    eq = eq && top == 0;
    if (zero || eq) verdict |= 1u << k;
  }
  return verdict;
}

}  // namespace primelabel::simd
