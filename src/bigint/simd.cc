#include "bigint/simd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>

#include "bigint/reduction.h"

#if defined(__x86_64__) && !defined(PRIMELABEL_DISABLE_SIMD)
#include <immintrin.h>
#define PRIMELABEL_HAVE_AVX2_KERNELS 1
#endif
#if defined(__aarch64__) && !defined(PRIMELABEL_DISABLE_SIMD)
#include <arm_neon.h>
#define PRIMELABEL_HAVE_NEON_KERNELS 1
#endif

namespace primelabel::simd {
namespace {

using Limb = std::uint32_t;
using U128 = unsigned __int128;
constexpr int kLimbBits = 32;

/// Below these operand sizes the vector walks' fixed costs (accumulator
/// zeroing, recombination, short vector tails) outweigh the multiply
/// savings and the row-wise scalar loop wins. Measured on AVX2: digit
/// products cross over near 20 digits of the smaller operand. The 64-bit
/// entry points compare against a native scalar loop that does 4x fewer
/// multiplies per limb product, so their digit-view vector path only pays
/// off once the digit count clears the digit gate — limbs64 defaults to
/// full/2. redc_min gates the padded vector REDC sweeps, whose lane
/// transpose never amortizes on tiny dividends.
struct DispatchGates {
  std::size_t full = 20;     ///< digit-kernel products
  std::size_t limbs64 = 10;  ///< 64-bit MulLimbSpans digit-view path
  std::size_t redc_min = 4;  ///< min dividend limbs for vector REDC
};

const DispatchGates& Gates() {
  static const DispatchGates gates = [] {
    DispatchGates g;
#if defined(PRIMELABEL_HAVE_NEON_KERNELS)
    // The compiled-in defaults were measured on AVX2 hardware; aarch64
    // deployments can re-tune the product gate without rebuilding:
    // PRIMELABEL_NEON_MIN_LIMBS="<full>".
    if (const char* env = std::getenv("PRIMELABEL_NEON_MIN_LIMBS")) {
      char* end = nullptr;
      const unsigned long full = std::strtoul(env, &end, 10);
      if (end != env && full != 0) {
        g.full = std::clamp<std::size_t>(full, 2, 256);
        g.limbs64 = std::max<std::size_t>(2, (g.full + 1) / 2);
      }
    }
#endif
    return g;
  }();
  return gates;
}

template <typename LimbT>
void StripHighZeros(std::vector<LimbT>* v) {
  while (!v->empty() && v->back() == 0) v->pop_back();
}

#if defined(PRIMELABEL_HAVE_AVX2_KERNELS) || defined(PRIMELABEL_HAVE_NEON_KERNELS)
/// Views little-endian uint64 limbs as twice as many uint32 digits. The
/// vector kernels are only compiled for little-endian targets, where the
/// two layouts coincide byte for byte.
std::span<const std::uint32_t> DigitView(std::span<const std::uint64_t> limbs) {
  static_assert(std::endian::native == std::endian::little,
                "vector kernels assume little-endian limb layout");
  return {reinterpret_cast<const std::uint32_t*>(limbs.data()),
          limbs.size() * 2};
}
#endif

/// Per-thread digit buffer for the 64-bit entry points: the digit-kernel
/// product before pair packing, or the explicit digit split of the
/// portable ChunkResidues.
std::vector<std::uint32_t>& DigitScratch() {
  thread_local std::vector<std::uint32_t> scratch;
  return scratch;
}

/// Per-thread storage for the reversed second operand of the NEON column
/// walk; reversal makes each column's partial products contiguous in
/// both operands (a[i] * brev[i + offset]), which is what lets the inner
/// loop run 4 products per vector op. (The AVX2 kernel row-scans and does
/// not reverse, so this is unused on x86-64 builds.)
[[maybe_unused]] std::vector<Limb>& ReversedScratch() {
  thread_local std::vector<Limb> scratch;
  return scratch;
}

/// Per-thread storage for the row-scanning AVX2 walk's per-column 64-bit
/// accumulators (low halves in the first half, high halves in the
/// second).
std::vector<std::uint64_t>& AccumulatorScratch() {
  thread_local std::vector<std::uint64_t> scratch;
  return scratch;
}

// --- Residue power tables ---------------------------------------------------

static_assert(kChunkCount == kFingerprintChunks,
              "simd chunk-lane count drifted from the fingerprint table");

/// Precomputed weights for the one-sweep residue kernel:
/// w[i * kLanes + j] = 2^(32*i) mod product_j. Magnitudes longer than
/// kBlockLimbs fold block by block through block_factor (Horner over
/// blocks), so the table stays a fixed ~56 KiB regardless of label size.
struct ResidueTables {
  static constexpr std::size_t kBlockLimbs = 1024;
  static constexpr std::size_t kLanes = 8;  ///< 7 chunks + 1 zero pad lane

  std::vector<std::uint64_t> w;  ///< kBlockLimbs rows of kLanes weights
  std::array<std::uint64_t, kLanes> products{};
  std::array<std::uint64_t, kLanes> block_factor{};  ///< 2^(32*kBlockLimbs) mod m
};

const ResidueTables& Tables() {
  static const ResidueTables* tables = [] {
    auto* t = new ResidueTables;
    for (int j = 0; j < kChunkCount; ++j) {
      t->products[static_cast<std::size_t>(j)] =
          kFingerprintChunkTable[static_cast<std::size_t>(j)].product;
    }
    t->products[kChunkCount] = 1;  // pad lane: everything is 0 mod 1
    t->w.assign(ResidueTables::kBlockLimbs * ResidueTables::kLanes, 0);
    for (std::size_t j = 0; j < ResidueTables::kLanes; ++j) {
      const std::uint64_t m = t->products[j];
      std::uint64_t power = 1 % m;
      for (std::size_t i = 0; i < ResidueTables::kBlockLimbs; ++i) {
        t->w[i * ResidueTables::kLanes + j] = power;
        power = static_cast<std::uint64_t>((static_cast<U128>(power) << 32) % m);
      }
      t->block_factor[j] = power;  // one step past the last row
    }
    return t;
  }();
  return *tables;
}

/// Residue of one block (<= kBlockLimbs limbs) for one lane: the dot
/// product sum_i limb_i * w_i reduced once at the end. Every term is
/// < 2^96 and a block has <= 2^10 of them, so the 128-bit accumulator
/// cannot overflow.
std::uint64_t BlockResidueScalar(std::span<const Limb> block, std::size_t lane) {
  const ResidueTables& t = Tables();
  U128 acc = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    acc += static_cast<U128>(block[i]) * t.w[i * ResidueTables::kLanes + lane];
  }
  return static_cast<std::uint64_t>(acc % t.products[lane]);
}

}  // namespace

// --- Dispatch ---------------------------------------------------------------

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
    case Isa::kScalar: break;
  }
  return "scalar";
}

bool VectorKernelsCompiledIn() {
#if defined(PRIMELABEL_DISABLE_SIMD)
  return false;
#else
  return true;
#endif
}

Isa DetectedIsa() {
  static const Isa detected = [] {
#if defined(PRIMELABEL_DISABLE_SIMD)
    return Isa::kScalar;
#else
    // Runtime kill switch for an otherwise capable build.
    const char* env = std::getenv("PRIMELABEL_DISABLE_SIMD");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') return Isa::kScalar;
#if defined(PRIMELABEL_HAVE_AVX2_KERNELS)
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kScalar;
#elif defined(PRIMELABEL_HAVE_NEON_KERNELS)
    return Isa::kNeon;  // baseline on aarch64, no cpuid needed
#else
    return Isa::kScalar;
#endif
#endif
  }();
  return detected;
}

namespace {
/// -1 = follow DetectedIsa; otherwise the forced Isa as an int.
std::atomic<int> g_isa_override{-1};
}  // namespace

Isa ActiveIsa() {
  int forced = g_isa_override.load(std::memory_order_relaxed);
  return forced < 0 ? DetectedIsa() : static_cast<Isa>(forced);
}

void SetActiveIsa(Isa isa) {
  // A vector ISA the host lacks clamps to scalar, so tests can request
  // "the other" ISA unconditionally and still run everywhere.
  if (isa != Isa::kScalar && isa != DetectedIsa()) isa = Isa::kScalar;
  g_isa_override.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void ResetActiveIsa() {
  g_isa_override.store(-1, std::memory_order_relaxed);
}

std::size_t VectorMinLimbsFull() { return Gates().full; }
std::size_t VectorMinLimbs64() { return Gates().limbs64; }
std::size_t RedcBatchMinLimbs() { return Gates().redc_min; }

// --- MulLimbSpans: portable -------------------------------------------------

void MulLimbSpansPortable(std::span<const Limb> a, std::span<const Limb> b,
                          std::vector<Limb>* out) {
  if (a.empty() || b.empty()) {
    out->clear();
    return;
  }
  out->assign(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur = (*out)[i + j] + ai * b[j] + carry;
      (*out)[i + j] = static_cast<Limb>(cur);
      carry = cur >> kLimbBits;
    }
    (*out)[i + b.size()] = static_cast<Limb>(carry);
  }
  StripHighZeros(out);
}

// --- MulLimbSpans: AVX2 -----------------------------------------------------

#if defined(PRIMELABEL_HAVE_AVX2_KERNELS)

namespace {

/// Row-scanning product: the value is the sum over columns k of col_k *
/// B^k, where col_k is the exact column sum over i+j==k of a[i]*b[j].
/// Instead of walking columns (whose per-column horizontal reductions
/// dominate at mid-size operands), each row i broadcasts a[i] and
/// multiplies four b limbs per vector op, splitting the 64-bit products
/// into low/high 32-bit halves accumulated in two per-column 64-bit
/// arrays. Each array entry sums at most min(na, nb) halves < 2^32, so
/// the lanes cannot wrap; a final scalar pass recombines
/// acc_lo[k] + (acc_hi[k] << 32) into base-2^32 digits. The value is
/// exact, so the output is identical limb-for-limb to the row-wise
/// schoolbook loop.
__attribute__((target("avx2"))) void MulLimbSpansAvx2(
    std::span<const Limb> a, std::span<const Limb> b,
    std::vector<Limb>* out) {
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const std::size_t cols = na + nb - 1;
  out->assign(cols + 1, 0);

  // The accumulators live on the stack for the common small/mid sizes —
  // the thread-local heap vector costs a TLS lookup plus a dispatched
  // memset per call, which is most of the kernel's fixed overhead there.
  constexpr std::size_t kStackCols = 128;
  alignas(32) std::uint64_t stack_acc[2 * kStackCols];
  std::uint64_t* acc_lo;
  if (cols <= kStackCols) {
    for (std::size_t k = 0; k < 2 * cols; ++k) stack_acc[k] = 0;
    acc_lo = stack_acc;
  } else {
    std::vector<std::uint64_t>& acc = AccumulatorScratch();
    acc.assign(2 * cols, 0);
    acc_lo = acc.data();
  }
  std::uint64_t* acc_hi = acc_lo + cols;

  const __m256i mask32 = _mm256_set1_epi64x(0xffffffff);
  for (std::size_t i = 0; i < na; ++i) {
    // Row i touches columns i + j for j in [0, nb).
    const __m256i av = _mm256_set1_epi64x(static_cast<long long>(a[i]));
    const Limb* pb = b.data();
    std::uint64_t* plo = acc_lo + i;
    std::uint64_t* phi = acc_hi + i;
    std::size_t j = 0;
    for (; j + 4 <= nb; j += 4, plo += 4, phi += 4) {
      __m256i bv = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + j)));
      __m256i p = _mm256_mul_epu32(av, bv);
      __m256i alo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plo));
      __m256i ahi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(phi));
      alo = _mm256_add_epi64(alo, _mm256_and_si256(p, mask32));
      ahi = _mm256_add_epi64(ahi, _mm256_srli_epi64(p, 32));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(plo), alo);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(phi), ahi);
    }
    for (; j < nb; ++j, ++plo, ++phi) {
      const std::uint64_t p = static_cast<std::uint64_t>(a[i]) * pb[j];
      *plo += p & 0xffffffffu;
      *phi += p >> 32;
    }
  }

  // Recombine. acc_lo[k] and acc_hi[k - 1] are each < min(na, nb) * 2^32
  // and the running carry stays below ~2 * min(na, nb), so the 64-bit sum
  // cannot wrap for any operand that fits in memory.
  std::uint64_t carry = 0;
  std::uint64_t hi_prev = 0;
  for (std::size_t k = 0; k < cols; ++k) {
    const std::uint64_t t = carry + acc_lo[k] + hi_prev;
    (*out)[k] = static_cast<Limb>(t);
    carry = t >> 32;
    hi_prev = acc_hi[k];
  }
  const std::uint64_t t = carry + hi_prev;
  (*out)[cols] = static_cast<Limb>(t);
  assert((t >> 32) == 0 && "product exceeded its bound");
  StripHighZeros(out);
}

}  // namespace

#endif  // PRIMELABEL_HAVE_AVX2_KERNELS

// --- MulLimbSpans: NEON -----------------------------------------------------

#if defined(PRIMELABEL_HAVE_NEON_KERNELS)

namespace {

/// Column-walk product with 2 x 64-bit lanes: vmull_u32 produces two
/// exact 32x32->64 products per op. Same exact value as the AVX2 and
/// scalar kernels.
void MulLimbSpansNeon(std::span<const Limb> a, std::span<const Limb> b,
                      std::vector<Limb>* out) {
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const std::size_t cols = na + nb - 1;
  out->assign(cols + 1, 0);

  std::vector<Limb>& brev = ReversedScratch();
  brev.resize(nb);
  for (std::size_t j = 0; j < nb; ++j) brev[j] = b[nb - 1 - j];

  const Limb* pa = a.data();
  const Limb* pr = brev.data();
  const uint64x2_t mask32 = vdupq_n_u64(0xffffffff);

  U128 carry = 0;
  for (std::size_t k = 0; k < cols; ++k) {
    const std::size_t ilo = k >= nb ? k - nb + 1 : 0;
    const std::size_t ihi = k < na ? k : na - 1;
    const std::size_t count = ihi - ilo + 1;
    const Limb* ca = pa + ilo;
    const Limb* cb = pr + (ilo + nb - 1 - k);

    uint64x2_t sum_lo = vdupq_n_u64(0);
    uint64x2_t sum_hi = vdupq_n_u64(0);
    std::size_t t = 0;
    for (; t + 4 <= count; t += 4) {
      uint32x4_t av = vld1q_u32(ca + t);
      uint32x4_t bv = vld1q_u32(cb + t);
      uint64x2_t p0 = vmull_u32(vget_low_u32(av), vget_low_u32(bv));
      uint64x2_t p1 = vmull_u32(vget_high_u32(av), vget_high_u32(bv));
      sum_lo = vaddq_u64(sum_lo, vandq_u64(p0, mask32));
      sum_hi = vaddq_u64(sum_hi, vshrq_n_u64(p0, 32));
      sum_lo = vaddq_u64(sum_lo, vandq_u64(p1, mask32));
      sum_hi = vaddq_u64(sum_hi, vshrq_n_u64(p1, 32));
    }
    std::uint64_t slo = vgetq_lane_u64(sum_lo, 0) + vgetq_lane_u64(sum_lo, 1);
    std::uint64_t shi = vgetq_lane_u64(sum_hi, 0) + vgetq_lane_u64(sum_hi, 1);
    U128 column = static_cast<U128>(slo) + (static_cast<U128>(shi) << 32);
    for (; t < count; ++t) {
      column += static_cast<U128>(ca[t]) * cb[t];
    }
    carry += column;
    (*out)[k] = static_cast<Limb>(carry);
    carry >>= 32;
  }
  (*out)[cols] = static_cast<Limb>(carry);
  assert((carry >> 32) == 0 && "product exceeded its bound");
  StripHighZeros(out);
}

}  // namespace

#endif  // PRIMELABEL_HAVE_NEON_KERNELS

void MulLimbSpans(std::span<const Limb> a, std::span<const Limb> b,
                  std::vector<Limb>* out) {
  if (a.empty() || b.empty()) {
    out->clear();
    return;
  }
  if (std::min(a.size(), b.size()) < Gates().full) {
    MulLimbSpansPortable(a, b, out);
    return;
  }
  switch (ActiveIsa()) {
#if defined(PRIMELABEL_HAVE_AVX2_KERNELS)
    case Isa::kAvx2:
      MulLimbSpansAvx2(a, b, out);
      return;
#endif
#if defined(PRIMELABEL_HAVE_NEON_KERNELS)
    case Isa::kNeon:
      MulLimbSpansNeon(a, b, out);
      return;
#endif
    default:
      break;
  }
  MulLimbSpansPortable(a, b, out);
}

// --- ChunkResidues: portable ------------------------------------------------

void ChunkResiduesPortable(std::span<const Limb> magnitude,
                           std::span<std::uint64_t> out) {
  assert(out.size() >= static_cast<std::size_t>(kChunkCount));
  const ResidueTables& t = Tables();
  const std::size_t blocks =
      (magnitude.size() + ResidueTables::kBlockLimbs - 1) /
      ResidueTables::kBlockLimbs;
  for (std::size_t j = 0; j < static_cast<std::size_t>(kChunkCount); ++j) {
    const std::uint64_t m = t.products[j];
    std::uint64_t r = 0;
    // Horner over blocks, most significant first; each step keeps both
    // factors below 2^64 and the pre-reduced block residue below m, so
    // the 128-bit intermediate cannot overflow.
    for (std::size_t blk = blocks; blk-- > 0;) {
      const std::size_t first = blk * ResidueTables::kBlockLimbs;
      std::span<const Limb> block = magnitude.subspan(
          first, std::min(ResidueTables::kBlockLimbs, magnitude.size() - first));
      std::uint64_t block_res = BlockResidueScalar(block, j);
      r = static_cast<std::uint64_t>(
          (static_cast<U128>(r) * t.block_factor[j] + block_res) % m);
    }
    out[j] = r;
  }
}

// --- ChunkResidues: AVX2 ----------------------------------------------------

#if defined(PRIMELABEL_HAVE_AVX2_KERNELS)

namespace {

/// One sweep over a block with the 7 chunk lanes (plus a zero pad lane)
/// vectorized: per limb, two weight loads cover all 8 lanes, and the
/// weights' low/high 32-bit halves are multiplied separately so every
/// partial product is exact. Accumulators split each product into 32-bit
/// halves, giving 2^32 safe additions per lane — far beyond a block.
__attribute__((target("avx2"))) void BlockResiduesAvx2(
    std::span<const Limb> block, std::uint64_t lanes[ResidueTables::kLanes]) {
  const ResidueTables& t = Tables();
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffff);
  __m256i s_ll[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
  __m256i s_lh[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
  __m256i s_hl[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
  __m256i s_hh[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
  for (std::size_t i = 0; i < block.size(); ++i) {
    const __m256i limb = _mm256_set1_epi64x(block[i]);
    const std::uint64_t* row = t.w.data() + i * ResidueTables::kLanes;
    for (int half = 0; half < 2; ++half) {
      __m256i wv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(row + 4 * half));
      // (w & 0xffffffff) * limb and (w >> 32) * limb, both exact 64-bit.
      __m256i plo = _mm256_mul_epu32(wv, limb);
      __m256i phi = _mm256_mul_epu32(_mm256_srli_epi64(wv, 32), limb);
      s_ll[half] = _mm256_add_epi64(s_ll[half], _mm256_and_si256(plo, mask32));
      s_lh[half] = _mm256_add_epi64(s_lh[half], _mm256_srli_epi64(plo, 32));
      s_hl[half] = _mm256_add_epi64(s_hl[half], _mm256_and_si256(phi, mask32));
      s_hh[half] = _mm256_add_epi64(s_hh[half], _mm256_srli_epi64(phi, 32));
    }
  }
  alignas(32) std::uint64_t ll[8], lh[8], hl[8], hh[8];
  for (int half = 0; half < 2; ++half) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(ll + 4 * half), s_ll[half]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lh + 4 * half), s_lh[half]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(hl + 4 * half), s_hl[half]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(hh + 4 * half), s_hh[half]);
  }
  for (std::size_t j = 0; j < static_cast<std::size_t>(kChunkCount); ++j) {
    // sum_i limb_i * w_ij = ll + (lh + hl) << 32 + hh << 64, exactly.
    U128 total = static_cast<U128>(ll[j]) +
                 ((static_cast<U128>(lh[j]) + hl[j]) << 32) +
                 (static_cast<U128>(hh[j]) << 64);
    lanes[j] = static_cast<std::uint64_t>(total % t.products[j]);
  }
}

void ChunkResiduesAvx2(std::span<const Limb> magnitude,
                       std::span<std::uint64_t> out) {
  const ResidueTables& t = Tables();
  const std::size_t blocks =
      (magnitude.size() + ResidueTables::kBlockLimbs - 1) /
      ResidueTables::kBlockLimbs;
  std::array<std::uint64_t, static_cast<std::size_t>(kChunkCount)> r{};
  for (std::size_t blk = blocks; blk-- > 0;) {
    const std::size_t first = blk * ResidueTables::kBlockLimbs;
    std::span<const Limb> block = magnitude.subspan(
        first, std::min(ResidueTables::kBlockLimbs, magnitude.size() - first));
    std::uint64_t lanes[ResidueTables::kLanes] = {};
    BlockResiduesAvx2(block, lanes);
    for (std::size_t j = 0; j < r.size(); ++j) {
      const std::uint64_t m = t.products[j];
      r[j] = static_cast<std::uint64_t>(
          (static_cast<U128>(r[j]) * t.block_factor[j] + lanes[j]) % m);
    }
  }
  for (std::size_t j = 0; j < r.size(); ++j) out[j] = r[j];
}

}  // namespace

#endif  // PRIMELABEL_HAVE_AVX2_KERNELS

// --- ChunkResidues: NEON ----------------------------------------------------

#if defined(PRIMELABEL_HAVE_NEON_KERNELS)

namespace {

void ChunkResiduesNeon(std::span<const Limb> magnitude,
                       std::span<std::uint64_t> out) {
  const ResidueTables& t = Tables();
  const std::size_t blocks =
      (magnitude.size() + ResidueTables::kBlockLimbs - 1) /
      ResidueTables::kBlockLimbs;
  std::array<std::uint64_t, static_cast<std::size_t>(kChunkCount)> r{};
  for (std::size_t blk = blocks; blk-- > 0;) {
    const std::size_t first = blk * ResidueTables::kBlockLimbs;
    std::span<const Limb> block = magnitude.subspan(
        first, std::min(ResidueTables::kBlockLimbs, magnitude.size() - first));
    // 8 lanes as 4 pairs; per limb: widening multiplies of the weights'
    // low/high 32-bit halves, accumulated in split 32-bit halves (same
    // overflow argument as the AVX2 kernel).
    uint64x2_t s_ll[4], s_lh[4], s_hl[4], s_hh[4];
    for (int p = 0; p < 4; ++p) {
      s_ll[p] = vdupq_n_u64(0);
      s_lh[p] = vdupq_n_u64(0);
      s_hl[p] = vdupq_n_u64(0);
      s_hh[p] = vdupq_n_u64(0);
    }
    const uint64x2_t mask32 = vdupq_n_u64(0xffffffff);
    for (std::size_t i = 0; i < block.size(); ++i) {
      const uint32x2_t limb = vdup_n_u32(block[i]);
      const std::uint64_t* row = t.w.data() + i * ResidueTables::kLanes;
      for (int p = 0; p < 4; ++p) {
        uint64x2_t wv = vld1q_u64(row + 2 * p);
        uint32x2_t wlo = vmovn_u64(wv);
        uint32x2_t whi = vshrn_n_u64(wv, 32);
        uint64x2_t plo = vmull_u32(wlo, limb);
        uint64x2_t phi = vmull_u32(whi, limb);
        s_ll[p] = vaddq_u64(s_ll[p], vandq_u64(plo, mask32));
        s_lh[p] = vaddq_u64(s_lh[p], vshrq_n_u64(plo, 32));
        s_hl[p] = vaddq_u64(s_hl[p], vandq_u64(phi, mask32));
        s_hh[p] = vaddq_u64(s_hh[p], vshrq_n_u64(phi, 32));
      }
    }
    for (std::size_t j = 0; j < r.size(); ++j) {
      const int p = static_cast<int>(j / 2);
      const int lane = static_cast<int>(j % 2);
      std::uint64_t ll = lane ? vgetq_lane_u64(s_ll[p], 1)
                              : vgetq_lane_u64(s_ll[p], 0);
      std::uint64_t lh = lane ? vgetq_lane_u64(s_lh[p], 1)
                              : vgetq_lane_u64(s_lh[p], 0);
      std::uint64_t hl = lane ? vgetq_lane_u64(s_hl[p], 1)
                              : vgetq_lane_u64(s_hl[p], 0);
      std::uint64_t hh = lane ? vgetq_lane_u64(s_hh[p], 1)
                              : vgetq_lane_u64(s_hh[p], 0);
      U128 total = static_cast<U128>(ll) +
                   ((static_cast<U128>(lh) + hl) << 32) +
                   (static_cast<U128>(hh) << 64);
      const std::uint64_t m = t.products[j];
      std::uint64_t lane_res = static_cast<std::uint64_t>(total % m);
      r[j] = static_cast<std::uint64_t>(
          (static_cast<U128>(r[j]) * t.block_factor[j] + lane_res) % m);
    }
  }
  for (std::size_t j = 0; j < r.size(); ++j) out[j] = r[j];
}

}  // namespace

#endif  // PRIMELABEL_HAVE_NEON_KERNELS

void ChunkResidues(std::span<const Limb> magnitude,
                   std::span<std::uint64_t> out) {
  assert(out.size() >= static_cast<std::size_t>(kChunkCount));
  switch (ActiveIsa()) {
#if defined(PRIMELABEL_HAVE_AVX2_KERNELS)
    case Isa::kAvx2:
      ChunkResiduesAvx2(magnitude, out);
      return;
#endif
#if defined(PRIMELABEL_HAVE_NEON_KERNELS)
    case Isa::kNeon:
      ChunkResiduesNeon(magnitude, out);
      return;
#endif
    default:
      break;
  }
  ChunkResiduesPortable(magnitude, out);
}

// --- 64-bit limb entry points -----------------------------------------------

void MulLimbSpansPortable(std::span<const std::uint64_t> a,
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

void MulLimbSpans(std::span<const std::uint64_t> a,
                  std::span<const std::uint64_t> b,
                  std::vector<std::uint64_t>* out) {
  if (a.empty() || b.empty()) {
    out->clear();
    return;
  }
#if defined(PRIMELABEL_HAVE_AVX2_KERNELS) || defined(PRIMELABEL_HAVE_NEON_KERNELS)
  if (std::min(a.size(), b.size()) >= Gates().limbs64 &&
      ActiveIsa() != Isa::kScalar) {
    // Run the dispatched digit kernel on zero-copy digit views, then pack
    // digit pairs back into 64-bit limbs. Same exact value as the native
    // loop, so the stripped limbs are bit-identical.
    std::vector<std::uint32_t>& digits = DigitScratch();
    MulLimbSpans(DigitView(a), DigitView(b), &digits);
    out->assign((digits.size() + 1) / 2, 0);
    for (std::size_t k = 0; k < digits.size(); ++k) {
      (*out)[k / 2] |= static_cast<std::uint64_t>(digits[k])
                       << (32 * (k % 2));
    }
    return;
  }
#endif
  MulLimbSpansPortable(a, b, out);
}

void ChunkResiduesPortable(std::span<const std::uint64_t> magnitude,
                           std::span<std::uint64_t> out) {
  // Explicit digit split (no layout punning): correct on any endianness,
  // and the anchor the digit-view dispatch below is tested against.
  std::vector<std::uint32_t>& digits = DigitScratch();
  digits.resize(magnitude.size() * 2);
  for (std::size_t i = 0; i < magnitude.size(); ++i) {
    digits[2 * i] = static_cast<std::uint32_t>(magnitude[i]);
    digits[2 * i + 1] = static_cast<std::uint32_t>(magnitude[i] >> 32);
  }
  ChunkResiduesPortable(std::span<const std::uint32_t>(digits), out);
}

void ChunkResidues(std::span<const std::uint64_t> magnitude,
                   std::span<std::uint64_t> out) {
#if defined(PRIMELABEL_HAVE_AVX2_KERNELS) || defined(PRIMELABEL_HAVE_NEON_KERNELS)
  ChunkResidues(DigitView(magnitude), out);
#else
  ChunkResiduesPortable(magnitude, out);
#endif
}

// --- Batched REDC divisibility: portable ------------------------------------

unsigned RedcDividesBatchPortable(std::span<const RedcLane> lanes) {
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

// --- Batched REDC divisibility: AVX2 ----------------------------------------

#if defined(PRIMELABEL_HAVE_AVX2_KERNELS)

namespace {

/// Interleaved digit buffers of the 4-lane REDC sweep: T and D hold one
/// digit per uint64 entry, position-major (entry = pos * 4 + lane).
std::vector<std::uint64_t>& RedcScratchAvx2() {
  thread_local std::vector<std::uint64_t> scratch;
  return scratch;
}

/// Four REDC divisibility sweeps in base 2^32, one per AVX2 lane, with
/// one shared step loop padded to the longest dividend. Padding is sound:
/// every extra step still clears the step's low digit (u is derived per
/// lane from its own digit and inverse) and only multiplies the residue
/// class by another B^-1, which gcd(B, odd d) = 1 makes harmless — after
/// any i steps t = (x + q * d) / B^i ≤ d + x / B^i, so after mmax ≥ m
/// steps every lane's residue is ≤ d and sits at T[mmax ..].
__attribute__((target("avx2"))) unsigned RedcDividesBatchAvx2(
    std::span<const RedcLane> lanes) {
  std::size_t mmax = 0;
  std::size_t ndmax = 0;
  for (const RedcLane& lane : lanes) {
    mmax = std::max(mmax, lane.dividend.size() * 2);
    ndmax = std::max(ndmax, lane.odd_divisor.size() * 2);
  }
  const std::size_t rows = mmax + ndmax + 2;
  std::vector<std::uint64_t>& buf = RedcScratchAvx2();
  buf.assign((rows + ndmax) * 4, 0);
  std::uint64_t* T = buf.data();
  std::uint64_t* D = buf.data() + rows * 4;
  alignas(32) std::uint64_t inv[4] = {};
  for (std::size_t k = 0; k < 4; ++k) {
    const RedcLane& lane = lanes[k];
    for (std::size_t i = 0; i < lane.dividend.size(); ++i) {
      T[(2 * i) * 4 + k] = static_cast<std::uint32_t>(lane.dividend[i]);
      T[(2 * i + 1) * 4 + k] =
          static_cast<std::uint32_t>(lane.dividend[i] >> 32);
    }
    // Shorter divisors are zero-padded: their padded rows add u * 0 and
    // just ripple the carry, which the scalar sweep does implicitly.
    for (std::size_t j = 0; j < lane.odd_divisor.size(); ++j) {
      D[(2 * j) * 4 + k] = static_cast<std::uint32_t>(lane.odd_divisor[j]);
      D[(2 * j + 1) * 4 + k] =
          static_cast<std::uint32_t>(lane.odd_divisor[j] >> 32);
    }
    // -d^-1 mod 2^64 reduces mod 2^32 to -d^-1 mod 2^32.
    inv[k] = static_cast<std::uint32_t>(lane.neg_inv);
  }

  const __m256i mask32 = _mm256_set1_epi64x(0xffffffff);
  const __m256i invv =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(inv));
  for (std::size_t i = 0; i < mmax; ++i) {
    std::uint64_t* base = T + i * 4;
    __m256i u = _mm256_and_si256(
        _mm256_mul_epu32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base)), invv),
        mask32);
    __m256i carry = _mm256_setzero_si256();
    for (std::size_t j = 0; j < ndmax; ++j) {
      // s = t[i+j] + u * d[j] + carry <= (2^32 - 1) + (2^32 - 1)^2 +
      // (2^32 - 1) = 2^64 - 1: the lane sums cannot wrap, provided every
      // T entry stays < 2^32 (the masked stores' invariant).
      const __m256i dv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(D + j * 4));
      const __m256i tv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + j * 4));
      const __m256i s = _mm256_add_epi64(_mm256_add_epi64(tv, carry),
                                         _mm256_mul_epu32(u, dv));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(base + j * 4),
                          _mm256_and_si256(s, mask32));
      carry = _mm256_srli_epi64(s, 32);
    }
    // Propagate the step's top carries until all four lanes are clear —
    // required to keep the < 2^32 invariant for later steps. Each pass
    // sums two values < 2^32 and < 2^32, so it converges fast, and the
    // value bound above keeps it inside the buffer.
    std::size_t pos = i + ndmax;
    while (!_mm256_testz_si256(carry, carry)) {
      assert(pos < rows);
      const __m256i tv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(T + pos * 4));
      const __m256i s = _mm256_add_epi64(tv, carry);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(T + pos * 4),
                          _mm256_and_si256(s, mask32));
      carry = _mm256_srli_epi64(s, 32);
      ++pos;
    }
  }

  unsigned verdict = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    bool zero = true;
    bool eq = true;
    for (std::size_t j = 0; j < ndmax; ++j) {
      const std::uint64_t digit = T[(mmax + j) * 4 + k];
      zero = zero && digit == 0;
      eq = eq && digit == D[j * 4 + k];
    }
    if (zero || eq) verdict |= 1u << k;
  }
  return verdict;
}

}  // namespace

#endif  // PRIMELABEL_HAVE_AVX2_KERNELS

// --- Batched REDC divisibility: NEON ----------------------------------------

#if defined(PRIMELABEL_HAVE_NEON_KERNELS)

namespace {

std::vector<std::uint64_t>& RedcScratchNeon() {
  thread_local std::vector<std::uint64_t> scratch;
  return scratch;
}

/// Two REDC divisibility sweeps in base 2^32, one per 64-bit NEON lane —
/// the same padded-uniform scheme as the AVX2 kernel (see its comment for
/// the invariants); a 4-lane batch runs as two pair calls.
unsigned RedcDividesBatchNeon2(std::span<const RedcLane> lanes) {
  std::size_t mmax = 0;
  std::size_t ndmax = 0;
  for (const RedcLane& lane : lanes) {
    mmax = std::max(mmax, lane.dividend.size() * 2);
    ndmax = std::max(ndmax, lane.odd_divisor.size() * 2);
  }
  const std::size_t rows = mmax + ndmax + 2;
  std::vector<std::uint64_t>& buf = RedcScratchNeon();
  buf.assign((rows + ndmax) * 2, 0);
  std::uint64_t* T = buf.data();
  std::uint64_t* D = buf.data() + rows * 2;
  std::uint32_t inv[2] = {};
  for (std::size_t k = 0; k < 2; ++k) {
    const RedcLane& lane = lanes[k];
    for (std::size_t i = 0; i < lane.dividend.size(); ++i) {
      T[(2 * i) * 2 + k] = static_cast<std::uint32_t>(lane.dividend[i]);
      T[(2 * i + 1) * 2 + k] =
          static_cast<std::uint32_t>(lane.dividend[i] >> 32);
    }
    for (std::size_t j = 0; j < lane.odd_divisor.size(); ++j) {
      D[(2 * j) * 2 + k] = static_cast<std::uint32_t>(lane.odd_divisor[j]);
      D[(2 * j + 1) * 2 + k] =
          static_cast<std::uint32_t>(lane.odd_divisor[j] >> 32);
    }
    inv[k] = static_cast<std::uint32_t>(lane.neg_inv);
  }

  const uint64x2_t mask32 = vdupq_n_u64(0xffffffff);
  const uint32x2_t invv = vld1_u32(inv);
  for (std::size_t i = 0; i < mmax; ++i) {
    std::uint64_t* base = T + i * 2;
    const uint32x2_t u =
        vmovn_u64(vandq_u64(vmull_u32(vmovn_u64(vld1q_u64(base)), invv),
                            mask32));
    uint64x2_t carry = vdupq_n_u64(0);
    for (std::size_t j = 0; j < ndmax; ++j) {
      const uint32x2_t dv = vmovn_u64(vld1q_u64(D + j * 2));
      const uint64x2_t tv = vld1q_u64(base + j * 2);
      const uint64x2_t s =
          vaddq_u64(vaddq_u64(tv, carry), vmull_u32(u, dv));
      vst1q_u64(base + j * 2, vandq_u64(s, mask32));
      carry = vshrq_n_u64(s, 32);
    }
    std::size_t pos = i + ndmax;
    while ((vgetq_lane_u64(carry, 0) | vgetq_lane_u64(carry, 1)) != 0) {
      assert(pos < rows);
      const uint64x2_t s = vaddq_u64(vld1q_u64(T + pos * 2), carry);
      vst1q_u64(T + pos * 2, vandq_u64(s, mask32));
      carry = vshrq_n_u64(s, 32);
      ++pos;
    }
  }

  unsigned verdict = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    bool zero = true;
    bool eq = true;
    for (std::size_t j = 0; j < ndmax; ++j) {
      const std::uint64_t digit = T[(mmax + j) * 2 + k];
      zero = zero && digit == 0;
      eq = eq && digit == D[j * 2 + k];
    }
    if (zero || eq) verdict |= 1u << k;
  }
  return verdict;
}

}  // namespace

#endif  // PRIMELABEL_HAVE_NEON_KERNELS

unsigned RedcDividesBatch(std::span<const RedcLane> lanes) {
  assert(!lanes.empty() && lanes.size() <= kRedcLanes);
#if defined(PRIMELABEL_HAVE_AVX2_KERNELS) || defined(PRIMELABEL_HAVE_NEON_KERNELS)
  std::size_t mmin = lanes[0].dividend.size();
  std::size_t mmax = mmin;
  for (const RedcLane& lane : lanes.subspan(1)) {
    mmin = std::min(mmin, lane.dividend.size());
    mmax = std::max(mmax, lane.dividend.size());
  }
  // The vector paths pad every lane to the longest dividend, while the
  // portable interleave runs each lane its exact step count — so any
  // width spread hands the vector path extra padded steps it has to win
  // back at digit granularity. Measured on AVX2 (which has no 64x64
  // multiply, so 4 digit lanes only match one scalar 64-bit product per
  // cycle to begin with): equal-width batches run ~0.9-1.1x the
  // portable time, a 1.25x spread already loses 26%, a 2x spread 57%.
  // Hence the gate: vector REDC only for batches of equal-size
  // dividends, where the transpose is the only overhead.
  if (mmin >= Gates().redc_min && mmax == mmin) {
    switch (ActiveIsa()) {
#if defined(PRIMELABEL_HAVE_AVX2_KERNELS)
      case Isa::kAvx2:
        if (lanes.size() == 4) return RedcDividesBatchAvx2(lanes);
        break;
#endif
#if defined(PRIMELABEL_HAVE_NEON_KERNELS)
      case Isa::kNeon:
        if (lanes.size() == 4) {
          return RedcDividesBatchNeon2(lanes.subspan(0, 2)) |
                 (RedcDividesBatchNeon2(lanes.subspan(2, 2)) << 2);
        }
        if (lanes.size() == 2) return RedcDividesBatchNeon2(lanes);
        break;
#endif
      default:
        break;
    }
  }
#endif
  return RedcDividesBatchPortable(lanes);
}

}  // namespace primelabel::simd
