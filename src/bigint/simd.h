#ifndef PRIMELABEL_BIGINT_SIMD_H_
#define PRIMELABEL_BIGINT_SIMD_H_

#include <cstdint>
#include <span>
#include <vector>

namespace primelabel::simd {

// Limb kernels.
//
// The divisibility engine (bigint/reduction.h) and BigInt multiplication
// bottom out in three inner loops over little-endian 64-bit limbs:
// MulLimbSpans, ChunkResidues and the batched Montgomery divisibility
// kernel RedcDividesBatch. Each has one portable body with native 64-bit
// arithmetic and 128-bit intermediates. There are no vector bodies: XML
// labels stay at a few limbs, and measured AVX2 bodies were no faster on
// them (DESIGN.md §10).

/// The former vector-REDC gate: the minimum dividend size, in 64-bit
/// limbs, at which RedcDividesBatch used to switch to a vector body. No
/// kernel reads it any more; it is kept so wirebench's record line (its
/// share of labels at this width) stays comparable across versions.
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

// --- Batched Montgomery (REDC) divisibility ---------------------------------

/// Maximum number of dividends one RedcDividesBatch call interleaves.
inline constexpr std::size_t kRedcLanes = 4;

/// One lane of a batched divisibility test: does `odd_divisor` divide
/// `dividend`?
///
/// Preconditions: `dividend` is a nonzero minimal little-endian 64-bit
/// magnitude; `odd_divisor` is odd with a nonzero top limb; `neg_inv` is
/// -odd_divisor[0]^-1 mod 2^64. Power-of-two divisor factors must be
/// tested by the caller (ReciprocalDivisor splits d = 2^e * odd and
/// checks the 2^e part against the dividend's trailing zeros).
struct RedcLane {
  std::span<const std::uint64_t> dividend;
  std::span<const std::uint64_t> odd_divisor;
  std::uint64_t neg_inv;
};

/// Runs up to kRedcLanes Montgomery (REDC) divisibility sweeps at once;
/// bit k of the result is set iff lanes[k].odd_divisor divides
/// lanes[k].dividend. Lanes may carry different divisors and different
/// sizes. The sweeps are interleaved step by step, which frees the
/// out-of-order core from each sweep's serial carry chain; every lane
/// runs its own exact step count. lanes.size() must be in
/// [1, kRedcLanes].
unsigned RedcDividesBatch(std::span<const RedcLane> lanes);

}  // namespace primelabel::simd

#endif  // PRIMELABEL_BIGINT_SIMD_H_
