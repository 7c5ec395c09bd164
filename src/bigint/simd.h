#ifndef PRIMELABEL_BIGINT_SIMD_H_
#define PRIMELABEL_BIGINT_SIMD_H_

#include <cstdint>
#include <span>
#include <vector>

namespace primelabel::simd {

// Vectorized limb kernels with runtime CPU dispatch.
//
// The divisibility engine (bigint/reduction.h) and BigInt multiplication
// bottom out in a few inner loops. BigInt stores 64-bit limbs, but the
// vector units multiply 32x32->64, so the kernel layer works at two
// granularities:
//
//   * 64-bit limb entry points (the BigInt representation) —
//     MulLimbSpans, ChunkResidues and the batched Montgomery
//     divisibility kernel RedcDividesBatch. Their vector paths view the
//     little-endian uint64 limbs as twice as many uint32 "digits"
//     (zero-copy on the little-endian targets the vector kernels are
//     compiled for) and their scalar paths run native 64-bit arithmetic
//     with 128-bit intermediates.
//   * 32-bit digit kernels — the digit overloads of MulLimbSpans and
//     ChunkResidues that those vector paths run on.
//
// Each kernel has a portable scalar implementation and, where the target
// supports it, a vector implementation (AVX2 on x86-64, NEON on aarch64)
// selected once at runtime. All implementations are exact integer
// arithmetic and therefore bit-identical: the vector paths only
// re-associate additions of exact partial products, never round.
//
// Dispatch gates, strongest first:
//   1. compile time  — building with -DPRIMELABEL_DISABLE_SIMD=ON
//      (CMake option) removes the vector bodies entirely;
//   2. process start — the PRIMELABEL_DISABLE_SIMD=1 environment
//      variable pins the scalar kernels on an otherwise capable CPU;
//   3. runtime       — SetActiveIsa lets tests and benches flip between
//      the scalar and vector kernels inside one process (equivalence
//      suites compare the two directly).

/// Instruction set a kernel call will use.
enum class Isa {
  kScalar,  ///< portable C++ (always available; the reference semantics)
  kAvx2,    ///< x86-64 AVX2 (4 x 64-bit lanes)
  kNeon,    ///< aarch64 NEON (2 x 64-bit lanes)
};

/// Human-readable ISA name ("scalar", "avx2", "neon") — the dispatch
/// metadata benches record in BENCH_*.json.
const char* IsaName(Isa isa);

/// What the hardware (and the compile/env gates) allow: kAvx2 or kNeon
/// when compiled in and detected, else kScalar. Detection runs once.
Isa DetectedIsa();

/// The ISA kernel calls will actually use right now: DetectedIsa()
/// unless overridden by SetActiveIsa.
Isa ActiveIsa();

/// Forces kernels onto `isa` (clamped to DetectedIsa() — requesting a
/// vector ISA the host lacks falls back to kScalar). Thread-safe; meant
/// for the scalar-vs-vector equivalence tests and A/B benches.
void SetActiveIsa(Isa isa);

/// Restores dispatch to DetectedIsa().
void ResetActiveIsa();

/// True when the vector kernels were compiled in (i.e. the build did not
/// set PRIMELABEL_DISABLE_SIMD).
bool VectorKernelsCompiledIn();

// --- Strategy crossovers ----------------------------------------------------
//
// Effective vector-dispatch gates, in limbs of the respective width.
// Compiled-in defaults were measured on AVX2; on aarch64 builds the
// digit-kernel product gate can be overridden without rebuilding via
// PRIMELABEL_NEON_MIN_LIMBS="<full>" (clamped to [2, 256]), since the
// NEON crossovers have not been measured on real hardware. Benches
// record all of these in the BENCH_*.json context block.

/// Digit-kernel gate for products (32-bit limbs, smaller operand).
std::size_t VectorMinLimbsFull();
/// 64-bit-limb gate for the MulLimbSpans digit-view vector path.
std::size_t VectorMinLimbs64();
/// Minimum dividend size (64-bit limbs) for the vector RedcDividesBatch
/// paths; smaller batches take the scalar interleaved sweep.
std::size_t RedcBatchMinLimbs();

// --- 64-bit limb entry points -----------------------------------------------

/// out = a * b over little-endian 64-bit limb spans, high zero limbs
/// stripped (empty result for an empty/zero operand). `out` must not
/// alias either input. Dispatched; bit-identical across ISAs.
void MulLimbSpans(std::span<const std::uint64_t> a,
                  std::span<const std::uint64_t> b,
                  std::vector<std::uint64_t>* out);

/// Portable reference for the 64-bit MulLimbSpans (native 128-bit
/// intermediates, always scalar, ignores the dispatch override).
void MulLimbSpansPortable(std::span<const std::uint64_t> a,
                          std::span<const std::uint64_t> b,
                          std::vector<std::uint64_t>* out);

/// ChunkResidues over a 64-bit limb magnitude (see the digit overload
/// below for the contract). Dispatched; bit-identical across ISAs.
void ChunkResidues(std::span<const std::uint64_t> magnitude,
                   std::span<std::uint64_t> out);

/// Portable reference for the 64-bit ChunkResidues (explicit digit
/// split, no layout punning — works on any endianness).
void ChunkResiduesPortable(std::span<const std::uint64_t> magnitude,
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
/// sizes. The AVX2 path interleaves 4 dividends across vector lanes at
/// digit granularity (one shared step loop padded to the longest lane —
/// extra REDC steps only multiply the residue class by extra B^-1
/// factors, which gcd(B, odd) = 1 makes harmless); NEON runs the same
/// scheme 2 lanes per vector; the scalar path interleaves the native
/// 64-bit sweeps of all lanes step by step, which frees the
/// out-of-order core from each sweep's serial carry chain. All paths
/// return identical verdicts (the exact predicate "REDC residue is 0 or
/// d"); lanes.size() must be in [1, kRedcLanes].
unsigned RedcDividesBatch(std::span<const RedcLane> lanes);

/// Portable reference implementation of RedcDividesBatch (always scalar,
/// ignores the dispatch override).
unsigned RedcDividesBatchPortable(std::span<const RedcLane> lanes);

/// out = a * b over little-endian 32-bit limb spans, high zero limbs
/// stripped (empty result for an empty/zero operand). `out` must not
/// alias either input. Dispatched; bit-identical across ISAs.
void MulLimbSpans(std::span<const std::uint32_t> a,
                  std::span<const std::uint32_t> b,
                  std::vector<std::uint32_t>* out);

/// The portable reference implementation of MulLimbSpans (always scalar,
/// ignores the dispatch override) — the comparison anchor of the
/// equivalence suites.
void MulLimbSpansPortable(std::span<const std::uint32_t> a,
                          std::span<const std::uint32_t> b,
                          std::vector<std::uint32_t>* out);

/// Number of fingerprint chunk moduli served by ChunkResidues — matches
/// kFingerprintChunks in bigint/reduction.h (static_asserted there).
inline constexpr int kChunkCount = 7;

/// out[j] = magnitude mod chunk_product[j] for all 7 fingerprint chunk
/// moduli at once (exactly BigInt::ModU64 against each product). One
/// sweep over the limbs against a precomputed 2^(32i) power table, with
/// the 7 chunk lanes vectorized. `out` must have kChunkCount slots.
void ChunkResidues(std::span<const std::uint32_t> magnitude,
                   std::span<std::uint64_t> out);

/// Portable reference implementation of ChunkResidues.
void ChunkResiduesPortable(std::span<const std::uint32_t> magnitude,
                           std::span<std::uint64_t> out);

}  // namespace primelabel::simd

#endif  // PRIMELABEL_BIGINT_SIMD_H_
