#ifndef PRIMELABEL_BIGINT_SIMD_H_
#define PRIMELABEL_BIGINT_SIMD_H_

#include <cstdint>
#include <span>
#include <vector>

namespace primelabel::simd {

// Limb kernels.
//
// BigInt multiplication and the fingerprint screen (bigint/reduction.h)
// bottom out in two inner loops over little-endian 64-bit limbs:
// MulLimbSpans and ChunkResidues. Each has one portable body with native
// 64-bit arithmetic and 128-bit intermediates. There are no vector
// bodies: XML labels stay at a few limbs, and measured AVX2 bodies were
// no faster on them (DESIGN.md §10).

/// The former vector-REDC gate: the minimum dividend size, in 64-bit
/// limbs, at which the multi-dividend REDC batch used to switch to a
/// vector body. The vector body and the batch are both gone (DESIGN.md
/// §10, §14); the constant is kept so wirebench's record line (its share
/// of labels at this width) stays comparable across versions.
inline std::size_t RedcBatchMinLimbs() { return 4; }

/// out = a * b over little-endian 64-bit limb spans, high zero limbs
/// stripped (empty result for an empty/zero operand). `out` must not
/// alias either input.
void MulLimbSpans(std::span<const std::uint64_t> a,
                  std::span<const std::uint64_t> b,
                  std::vector<std::uint64_t>* out);

/// Number of fingerprint chunk moduli served by ChunkResidues — matches
/// kFingerprintChunks in bigint/reduction.h (static_asserted there).
inline constexpr int kChunkCount = 7;

/// out[j] = magnitude mod chunk_product[j] for all 7 fingerprint chunk
/// moduli at once (exactly BigInt::ModU64 against each product): one
/// sweep per chunk over the limbs' 32-bit halves against a precomputed
/// 2^(32i) power table. `out` must have kChunkCount slots.
void ChunkResidues(std::span<const std::uint64_t> magnitude,
                   std::span<std::uint64_t> out);

}  // namespace primelabel::simd

#endif  // PRIMELABEL_BIGINT_SIMD_H_
