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

}  // namespace primelabel::simd
