#include "store/label_arena.h"

#include <bit>
#include <cstring>

#include "util/binio.h"

namespace primelabel {

namespace {

constexpr std::size_t kHeaderBytes = 16;

std::size_t WordsFor(std::size_t bits) { return (bits + 63) / 64; }

}  // namespace

void LabelArenaBuilder::Append(LabelView magnitude) {
  while (!magnitude.empty() && magnitude.back() == 0) {
    magnitude = magnitude.first(magnitude.size() - 1);
  }
  const std::size_t start = limbs_.size();
  if ((rows_ & 63) == 0) directory_.push_back(start);
  if (bitmap_.size() < WordsFor(start + 1)) bitmap_.push_back(0);
  bitmap_[start >> 6] |= std::uint64_t{1} << (start & 63);
  if (magnitude.empty()) {
    limbs_.push_back(0);  // zero keeps its row addressable
  } else {
    limbs_.insert(limbs_.end(), magnitude.begin(), magnitude.end());
  }
  while (bitmap_.size() < WordsFor(limbs_.size())) bitmap_.push_back(0);
  ++rows_;
}

std::vector<std::uint8_t> LabelArenaBuilder::Encode() const {
  ByteWriter writer;
  writer.U64(static_cast<std::uint64_t>(rows_));
  writer.U64(static_cast<std::uint64_t>(limbs_.size()));
  for (std::uint64_t v : limbs_) writer.U64(v);
  for (std::uint64_t v : bitmap_) writer.U64(v);
  for (std::uint64_t v : directory_) writer.U64(v);
  return writer.Take();
}

Result<LabelArena> LabelArena::FromBytes(std::span<const std::uint8_t> bytes,
                                         const std::string& origin) {
  if (reinterpret_cast<std::uintptr_t>(bytes.data()) % 8 != 0) {
    return Status::Corruption(origin + ": arena image is not 8-byte aligned");
  }
  if (bytes.size() < kHeaderBytes) {
    return Status::Corruption(origin + ": arena image shorter than header");
  }
  ByteReader header(bytes.first(kHeaderBytes));
  const std::uint64_t rows = header.U64();
  const std::uint64_t limbs = header.U64();
  // Every row occupies at least one limb; the caps keep the size
  // arithmetic below overflow-free.
  if (rows > (std::uint64_t{1} << 32) || limbs > (std::uint64_t{1} << 40) ||
      (rows == 0) != (limbs == 0) || (rows != 0 && limbs < rows)) {
    return Status::Corruption(origin + ": implausible arena header (rows=" +
                              std::to_string(rows) +
                              ", limbs=" + std::to_string(limbs) + ")");
  }
  const std::size_t bitmap_words = WordsFor(static_cast<std::size_t>(limbs));
  const std::size_t dir_words = WordsFor(static_cast<std::size_t>(rows));
  const std::size_t expected =
      kHeaderBytes + 8 * (static_cast<std::size_t>(limbs) + bitmap_words +
                          dir_words);
  if (bytes.size() != expected) {
    return Status::Corruption(
        origin + ": arena image is " + std::to_string(bytes.size()) +
        " bytes, layout requires " + std::to_string(expected));
  }
  LabelArena arena;
  arena.rows_ = static_cast<std::size_t>(rows);
  arena.limb_count_ = static_cast<std::size_t>(limbs);
  arena.byte_size_ = bytes.size();
  // Little-endian in-place view: the file stores little-endian u64s, so
  // on the little-endian targets this builds for, the stored bytes ARE
  // the in-memory representation.
  const auto* words =
      reinterpret_cast<const std::uint64_t*>(bytes.data() + kHeaderBytes);
  arena.limbs_ = words;
  arena.bitmap_ = words + limbs;
  arena.directory_ = arena.bitmap_ + bitmap_words;
  // One structural pass: the bitmap's population count must equal the
  // row count, with every 64th set bit where the directory says it is.
  // This is the second line of defense behind the catalog's section
  // digests — it also guards arenas opened outside a catalog.
  std::size_t seen_rows = 0;
  for (std::size_t w = 0; w < bitmap_words; ++w) {
    std::uint64_t word = arena.bitmap_[w];
    while (word != 0) {
      const std::size_t pos = (w << 6) + std::countr_zero(word);
      if (pos >= arena.limb_count_) {
        return Status::Corruption(origin +
                                  ": arena bitmap marks a limb past the end");
      }
      if ((seen_rows & 63) == 0 &&
          arena.directory_[seen_rows >> 6] != pos) {
        return Status::Corruption(origin +
                                  ": arena directory disagrees with bitmap");
      }
      ++seen_rows;
      word &= word - 1;
    }
  }
  if (seen_rows != arena.rows_) {
    return Status::Corruption(
        origin + ": arena bitmap holds " + std::to_string(seen_rows) +
        " rows, header says " + std::to_string(arena.rows_));
  }
  return arena;
}

LabelView LabelArena::operator[](std::size_t row) const {
  PL_CHECK(row < rows_);
  // select(row): jump to the row's 64-row chunk via the directory, then
  // popcount-scan the bitmap for the (row % 64)-th set bit from there.
  const std::size_t base = directory_[row >> 6];
  std::size_t remaining = row & 63;
  std::size_t w = base >> 6;
  std::uint64_t word = bitmap_[w] & (~std::uint64_t{0} << (base & 63));
  while (true) {
    const std::size_t pc = static_cast<std::size_t>(std::popcount(word));
    if (remaining < pc) break;
    remaining -= pc;
    word = bitmap_[++w];
  }
  for (; remaining > 0; --remaining) word &= word - 1;
  const std::size_t start = (w << 6) + std::countr_zero(word);
  // The row ends at the next set bit (or the arena's end).
  std::uint64_t rest = word & (word - 1);
  std::size_t w2 = w;
  const std::size_t bitmap_words = WordsFor(limb_count_);
  while (rest == 0 && ++w2 < bitmap_words) rest = bitmap_[w2];
  const std::size_t end = rest != 0
                              ? (w2 << 6) + std::countr_zero(rest)
                              : limb_count_;
  LabelView view(limbs_ + start, end - start);
  // Zero-normalize: a stored single 0 limb is the zero value.
  if (view.size() == 1 && view[0] == 0) return {};
  return view;
}

}  // namespace primelabel
