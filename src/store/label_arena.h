#ifndef PRIMELABEL_STORE_LABEL_ARENA_H_
#define PRIMELABEL_STORE_LABEL_ARENA_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace primelabel {

// Succinct packed magnitude store for a sealed epoch (DESIGN.md §15).
//
// A heap catalog holds one BigInt per label and per SC value: a 32-byte
// control block plus a separately allocated limb vector each, addressed
// through pointers — at millions of nodes the allocator overhead and the
// pointer-chasing cache misses dominate query cost. The arena instead
// packs every magnitude of one column into a single contiguous limb
// array, with a rank/select bitmap giving O(1)-ish row addressing:
//
//   header      row_count u64, limb_count u64
//   limbs       limb_count u64s — the minimal little-endian magnitudes,
//               concatenated in row order (zero stored as one 0 limb so
//               every row occupies at least one limb)
//   bitmap      ceil(limb_count / 64) u64 words; bit i set iff limb i
//               starts a row. A row's length is the distance to the next
//               set bit (BigInt magnitudes are minimal, so lengths are
//               recoverable — no per-row length prefix needed)
//   directory   ceil(row_count / 64) u64s; entry c is the start limb of
//               row 64c. select(row) = directory[row / 64] + a short
//               popcount scan over at most 64 rows' worth of bitmap
//
// The poplar-trie grouped store this follows (SNIPPETS.md) packs
// vbyte-encoded byte entries; this arena deviates to whole-limb
// granularity deliberately: the reduction kernels (bigint/reduction.h)
// consume aligned little-endian u64 limb spans, so limb packing makes
// every access zero-copy — a `LabelView` straight into the arena (or the
// mmap'd catalog section behind it) with no decode and no allocation.
// vbyte would save ~3.5 bytes/row of padding but force a decode+copy per
// access, which is the exact cost the arena exists to remove.
//
// The encoded image is position-independent and 8-byte-internally-aligned,
// so a LabelArena can be opened directly over a mapped catalog section
// (store/catalog.h formats v4 and v5). LabelArena is a non-owning view: the
// backing bytes must outlive it and must start 8-byte aligned.

/// A non-owning label value: minimal little-endian 64-bit limb magnitude,
/// empty for zero (exactly BigInt::Magnitude()'s shape). Labels and SC
/// values are nonnegative throughout the scheme, so no sign accompanies
/// the span; BigInt::FromLimbs is the mutation-edge bridge back to owned
/// arithmetic.
using LabelView = std::span<const std::uint64_t>;

/// Accumulates one column's magnitudes in row order and serializes the
/// arena image.
class LabelArenaBuilder {
 public:
  /// Appends one row. `magnitude` need not be minimal (trailing zero
  /// limbs are stripped); empty means zero.
  void Append(LabelView magnitude);

  std::size_t rows() const { return rows_; }

  /// Serializes the arena image (little-endian, layout above).
  std::vector<std::uint8_t> Encode() const;

 private:
  std::vector<std::uint64_t> limbs_;
  std::vector<std::uint64_t> bitmap_;
  std::vector<std::uint64_t> directory_;
  std::size_t rows_ = 0;
};

/// Read-only arena over an encoded image. Validates the structure on
/// open (header arithmetic, bitmap population count, directory
/// consistency) so a damaged image surfaces as kCorruption instead of an
/// out-of-bounds read later.
class LabelArena {
 public:
  /// Empty arena (zero rows).
  LabelArena() = default;

  /// Opens `bytes` as an arena image. `bytes.data()` must be 8-byte
  /// aligned and outlive the arena. `origin` names the source in errors.
  static Result<LabelArena> FromBytes(std::span<const std::uint8_t> bytes,
                                      const std::string& origin);

  std::size_t size() const { return rows_; }

  /// The row's magnitude, zero-normalized (a stored single 0 limb reads
  /// back as the empty span). Valid while the backing bytes live.
  LabelView operator[](std::size_t row) const;

  /// Bytes of the backing image — the resident footprint of this column
  /// (shared, under mmap, with every other view of the same epoch).
  std::size_t byte_size() const { return byte_size_; }

  /// Total limbs stored (diagnostics/benches).
  std::size_t limb_count() const { return limb_count_; }

 private:
  const std::uint64_t* limbs_ = nullptr;
  const std::uint64_t* bitmap_ = nullptr;
  const std::uint64_t* directory_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t limb_count_ = 0;
  std::size_t byte_size_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_STORE_LABEL_ARENA_H_
