#ifndef PRIMELABEL_BIGINT_REDUCTION_H_
#define PRIMELABEL_BIGINT_REDUCTION_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.h"

namespace primelabel {

// Divisibility fast-path engine. Every structural query of the prime
// scheme reduces to `label(y) mod label(x) == 0` (Properties 2 and 3 of
// the paper), so BigInt reduction is the hot path of the whole system.
// This header provides the two layers the batch query kernels share, each
// bit-identical in outcome to naive DivMod:
//
//   Layer 1 — label fingerprints (LabelFingerprint, 16 bytes): which of
//   the first 64 primes divide the label, plus its bit length and
//   trailing-zero count. A witness in any slot rejects a candidate pair
//   with zero BigInt work; pairs that pass fall through to an exact test.
//
//   Layer 2 — reciprocal-cached divisibility (ReciprocalDivisor): when
//   one divisor is tested against many dividends, its constants are
//   computed once, so each remaining test is a Möller–Granlund 2-by-1
//   remainder for word-sized divisors or one Montgomery (REDC) sweep for
//   multi-limb ones, instead of a full Knuth division.
//
// The CRT solver (core/crt.h, SolveCrtFast) needs neither: Garner's
// recurrence runs on BigInt::ModU64 and word arithmetic.

// --- Layer 1: residue fingerprints -----------------------------------------

/// The first 64 primes (2 .. 311). A fingerprint tracks, for each of
/// these, whether it divides the label; prime labels are products of the
/// *smallest* unused primes, so almost every label contains several of
/// them and almost every non-ancestor pair differs in at least one.
inline constexpr std::array<std::uint32_t, 64> kFingerprintPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,
    43,  47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101,
    103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
    173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239,
    241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311};

/// Consecutive kFingerprintPrimes packed greedily into squarefree products
/// that fit a machine word. FingerprintOf reduces a label by each product
/// once and reads the prime mask off the seven word-sized residues.
struct FingerprintChunk {
  std::uint64_t product = 1;  ///< product of primes [first, first + count)
  int first = 0;
  int count = 0;
};

/// Greedy chunking of the 64 fingerprint primes: 7 chunks fit in 64-bit
/// products (15 + 10 + 9 + 8 + 8 + 8 + 6 primes).
inline constexpr int kFingerprintChunks = 7;

consteval std::array<FingerprintChunk, kFingerprintChunks>
BuildFingerprintChunks() {
  std::array<FingerprintChunk, kFingerprintChunks> chunks{};
  int chunk = 0;
  int i = 0;
  while (i < static_cast<int>(kFingerprintPrimes.size())) {
    FingerprintChunk c;
    c.first = i;
    while (i < static_cast<int>(kFingerprintPrimes.size()) &&
           c.product <= ~std::uint64_t{0} / kFingerprintPrimes[i]) {
      c.product *= kFingerprintPrimes[i];
      ++c.count;
      ++i;
    }
    chunks[chunk++] = c;
  }
  // consteval: a mismatch with kFingerprintChunks fails the build.
  if (chunk != kFingerprintChunks) throw "fingerprint chunk count drifted";
  return chunks;
}

inline constexpr std::array<FingerprintChunk, kFingerprintChunks>
    kFingerprintChunkTable = BuildFingerprintChunks();

/// Word-sized summary of a label, attached at labeling time and consulted
/// before any BigInt division.
///
/// The witness logic: if x divides y, then (a) every small prime dividing
/// x divides y, (b) the exact power of two dividing x divides y, and (c)
/// x <= y. Each field gives one of those necessary conditions a
/// constant-time check. A failed check is a proof of non-divisibility; a
/// pass decides nothing (the caller runs the exact division).
///
/// The struct is exactly the fields the screen reads, 16 bytes with no
/// padding: catalog v5 and delta format PLDELTA2 persist this image, and
/// the catalog's FPS column is read in place as an array of it.
struct LabelFingerprint {
  /// Bit i set iff kFingerprintPrimes[i] divides the label.
  std::uint64_t prime_mask = 0;
  /// BigInt::BitLength() of the label.
  std::int32_t bit_length = 0;
  /// BigInt::TrailingZeroBits() of the label (the Opt2 power-of-two slot:
  /// an even divisor with more trailing zeros than the dividend is
  /// rejected here, before any division).
  std::int32_t trailing_zeros = 0;

  friend bool operator==(const LabelFingerprint&,
                         const LabelFingerprint&) = default;
};

/// Computes the fingerprint of `value` from scratch (|value| is used).
/// Cost: one word-sized remainder per chunk (kept as locals) plus one
/// multiply per fingerprint prime to read the mask off those residues —
/// the catalog load path and Adopt use this.
LabelFingerprint FingerprintOf(const BigInt& value);

/// Fingerprints a whole span of labels in one call — the batched front
/// door to the chunk-residue kernel (bigint/simd.h), used by
/// the catalog load pass and bulk adoption. `out` must have
/// `labels.size()` slots. Element-for-element identical to FingerprintOf.
void FingerprintLabels(std::span<const BigInt> labels,
                       std::span<LabelFingerprint> out);

/// Stable 64-bit hash of the fingerprint configuration: the prime list,
/// the chunk packing (product/first/count per chunk) and the chunk count.
/// Persisted fingerprints (catalog formats v3 to v5) are only valid
/// against the exact configuration they were computed with — a catalog
/// written before a change to kFingerprintPrimes must fall back to
/// recomputing — so the catalog stores this hash and the loader compares
/// it against the running binary's value. The value is the same as when
/// fingerprints still carried the chunk residues: the three persisted
/// fields depend only on kFingerprintPrimes, so the tails of v3/v4 images
/// stay adoptable.
std::uint64_t FingerprintConfigHash();

/// Number of labels fingerprinted from scratch (FingerprintOf +
/// FingerprintLabels elements) since process start. The catalog-v3 load
/// path is required to *skip* the recompute pass when persisted
/// fingerprints validate; tests assert that by differencing this counter
/// around a load. Monotone, thread-safe, test/diagnostic use only.
std::uint64_t FingerprintComputeCount();

/// Derives the fingerprint of `child_label == parent_label * self` from
/// the parent's fingerprint — the incremental path used while labeling.
/// `self` must be prime (the top-down scheme's self-labels are), so the
/// mask is the parent's OR self's bit; `child_label` is consulted only for
/// the exact bit length and trailing-zero count.
LabelFingerprint ExtendFingerprintByPrime(const LabelFingerprint& parent,
                                          std::uint64_t self,
                                          const BigInt& child_label);

/// False iff some fingerprint slot witnesses that the label behind
/// `divisor` cannot divide the label behind `dividend`. True means "maybe"
/// — run the exact test.
inline bool FingerprintMayDivide(const LabelFingerprint& divisor,
                                 const LabelFingerprint& dividend) {
  return divisor.bit_length <= dividend.bit_length &&
         (divisor.prime_mask & ~dividend.prime_mask) == 0 &&
         divisor.trailing_zeros <= dividend.trailing_zeros;
}

/// The sharper witness for *proper* division (divisor strictly smaller
/// than dividend): x | y with x != y forces y >= 2x, so the divisor's bit
/// length must be strictly smaller. This is the ancestry case — a proper
/// ancestor's label strictly divides the descendant's — and the strict
/// bound rejects the common same-depth pairs whose bit lengths tie.
/// Callers must exclude the x == y pair themselves (the batch kernels
/// already do, via node identity or the catalog's label-equality guard).
inline bool FingerprintMayProperlyDivide(const LabelFingerprint& divisor,
                                         const LabelFingerprint& dividend) {
  return divisor.bit_length < dividend.bit_length &&
         (divisor.prime_mask & ~dividend.prime_mask) == 0 &&
         divisor.trailing_zeros <= dividend.trailing_zeros;
}

// --- Layer 2: reciprocal-cached divisibility ------------------------------

/// Non-owning magnitude: little-endian 64-bit limbs, minimal (no trailing
/// zero limbs), empty for zero — exactly BigInt::Magnitude()'s shape. The
/// zero-copy currency between the arena label store (store/label_arena.h)
/// and the reduction kernels: arena-backed catalogs hand these straight
/// from the mapped file, never materializing a BigInt on the query path.
using LimbSpan = std::span<const std::uint64_t>;

/// Trailing zero bits of a magnitude span (0 for the empty/zero span) —
/// the span twin of BigInt::TrailingZeroBits.
int TrailingZeroBitsOf(LimbSpan magnitude);

/// True iff product == factor * multiplier, compared limb by limb as the
/// product forms, with no BigInt allocated. Both magnitudes must be
/// minimal. The parent test of the prime labels: label(child) ==
/// label(parent) * self(child).
bool IsProductOf(LimbSpan product, LimbSpan factor, std::uint64_t multiplier);

/// A divisor cached for repeated exact-divisibility tests. Assign picks
/// one of two strategies by divisor size (64-bit limbs) and precomputes
/// its constants once, so each Divides call avoids the per-call setup of
/// a cold division:
///   1 limb   — Möller–Granlund word reciprocal (a streamed 2-by-1
///              remainder, compared against zero);
///   2+ limbs — Montgomery (REDC) divisibility sweep over the divisor's
///              odd part, with the power-of-two part checked as a bit
///              test (see Divides).
/// One instance per batch per thread; the sweep accumulator makes the
/// object non-thread-safe by design.
class ReciprocalDivisor {
 public:
  ReciprocalDivisor() = default;

  /// Caches `divisor` (> 0). May be called repeatedly to re-point the
  /// cache at a new divisor: the anchor-run pattern of IsAncestorBatch,
  /// and SelectAncestors, which re-points one instance at each candidate
  /// ancestor and tests it against the anchor's label.
  void Assign(const BigInt& divisor) { Assign(divisor.Magnitude()); }

  /// Span twin of Assign, for arena-backed anchors: the constants are
  /// built straight from the span, with no owned copy of the divisor.
  void Assign(LimbSpan divisor_magnitude);

  bool assigned() const { return limbs_ != 0; }

  /// True iff the cached divisor divides |dividend| exactly. Bit-identical
  /// to BigInt::IsDivisibleBy against the same divisor. Multi-limb
  /// divisors take a word-by-word Montgomery (REDC) divisibility pass:
  /// with d = 2^e * d_odd, d | y iff 2^e | y (a bit test) and d_odd | y,
  /// and the latter holds iff the Montgomery reduction y * B^-m mod d_odd
  /// is zero — computed in one streaming multiply-accumulate sweep with
  /// no quotient estimates, chunking, or correction steps.
  bool Divides(const BigInt& dividend) {
    return Divides(dividend.Magnitude());
  }

  /// Span twin of Divides — the arena query path. Bit-identical to
  /// Divides(BigInt::FromLimbs(dividend_magnitude)).
  bool Divides(LimbSpan dividend_magnitude);

 private:
  /// True iff the divisor's power-of-two factor 2^e divides the dividend
  /// (an e-bit tail check — the cheap half of the d = 2^e * odd split).
  bool PowerOfTwoPartDivides(LimbSpan dividend) const;
  /// The streaming REDC divisibility sweep (see Divides). Requires
  /// dividend.size() >= limbs_ and a nonzero dividend.
  bool MontgomeryDivides(LimbSpan dividend);

  std::size_t limbs_ = 0;  ///< divisor magnitude limb count
  // Word state (limbs_ == 1): the divisor shifted to set its top bit, that
  // shift, and the Möller–Granlund reciprocal of the shifted divisor.
  std::uint64_t word_normalized_ = 0;
  std::uint64_t word_reciprocal_ = 0;
  int word_shift_ = 0;
  // Montgomery divisibility state (multi-limb divisors): the divisor's
  // odd part, how many factors of two were shifted out, and the word
  // inverse -odd_divisor_[0]^-1 mod 2^64 driving each REDC step.
  // mont_acc_ is the reusable sweep accumulator.
  std::vector<std::uint64_t> odd_divisor_;
  std::vector<std::uint64_t> mont_acc_;
  int divisor_trailing_zeros_ = 0;
  std::uint64_t mont_inv_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_BIGINT_REDUCTION_H_
