#include "store/catalog.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "bigint/recip.h"
#include "core/batch_kernels.h"
#include "durability/crc32.h"
#include "primes/prime_source.h"

namespace primelabel {

namespace {

/// Shared 7-byte magic prefix; the eighth byte is the ASCII format digit.
constexpr char kMagicPrefix[7] = {'P', 'L', 'C', 'A', 'T', 'L', 'G'};

/// The image columns are read in place (reinterpret_cast over the
/// image), so the stored little-endian bytes must BE the in-memory
/// representation. A big-endian port would need a decode pass here; fail
/// loudly at compile time instead of corrupting quietly.
static_assert(std::endian::native == std::endian::little,
              "catalog in-place columns require a little-endian host");

/// The v5 FPS column and PLDELTA2 patch rows persist a LabelFingerprint as
/// its own 16-byte memory image: prime_mask, bit_length, trailing_zeros,
/// little-endian, in declaration order. The FPS column is read in place
/// as an array of the struct, which is only sound while the struct has no
/// padding and keeps 8-byte alignment down the column.
constexpr std::size_t kFingerprintImageBytes = sizeof(LabelFingerprint);
static_assert(kFingerprintImageBytes == 16 &&
                  std::has_unique_object_representations_v<LabelFingerprint>,
              "the fingerprint image must be the struct's padding-free layout");
static_assert(alignof(LabelFingerprint) <= 8 &&
                  kFingerprintImageBytes % 8 == 0,
              "FPS entries must preserve 8-byte alignment down the column");

/// v3 rows, v4 FPS entries and PLDELTA1 patch rows hold a 72-byte image:
/// seven chunk residues, which no reader needs, then the 16-byte image
/// above. Readers adopt that tail and skip the residues.
constexpr std::size_t kResidueImageBytes = 72;
constexpr std::size_t kResidueImageTail =
    kResidueImageBytes - kFingerprintImageBytes;

LabelFingerprint FingerprintAt(const std::uint8_t* image) {
  LabelFingerprint fp;
  std::memcpy(&fp, image, sizeof(fp));
  return fp;
}

std::size_t RowFingerprintBytes(RowFingerprint shape) {
  switch (shape) {
    case RowFingerprint::kNone:
      return 0;
    case RowFingerprint::kResidueImage:
      return kResidueImageBytes;
    case RowFingerprint::kImage:
      return kFingerprintImageBytes;
  }
  return 0;
}

// --- Formats v4 and v5: sectioned columnar image --------------------------
//
//   [0..8)    magic "PLCATLG5" (the read-only v4: "PLCATLG4")
//   [8..12)   u32 crc32 of bytes [12 .. header_end)
//   [12..20)  u64 fingerprint config hash
//   [20..28)  u64 row count
//   [28..32)  u32 SC group size
//   [32..36)  u32 section count (exactly the six below, in id order)
//   [36..header_end)  per section: u32 id, u32 crc32, u64 offset, u64 len
//   sections, each starting at an 8-byte-aligned offset
//
// v4 differs from v5 in two sections only: its FPS entries are the 72-byte
// residue images, and its SCMETA stores an order after every modulus. v5
// keeps the 16-byte fingerprints and the moduli alone; readers derive each
// order as sc mod modulus, the paper's recovery.
//
// The directory is bounds-checked against the actual byte count before
// any section is touched — a truncated file (or mapping) fails the
// size-vs-directory gate up front instead of faulting mid-read.

enum SectionId : std::uint32_t {
  kSecRowMeta = 1,  ///< tag / element flag / parent / attributes stream
  kSecSelf = 2,     ///< u64 self-label column
  kSecLabels = 3,   ///< LabelArena image of label magnitudes
  kSecFps = 4,      ///< fingerprint images (16 bytes each; v4: 72)
  kSecScMeta = 5,   ///< SC record count, then per record its moduli
  kSecScVals = 6,   ///< LabelArena image of SC magnitudes
};

constexpr std::uint32_t kSectionCount = 6;
constexpr std::size_t kFixedHeaderBytes = 36;
constexpr std::size_t kDirectoryEntryBytes = 24;

std::size_t Align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Parsed image header: section byte ranges plus the header scalars.
struct ImageLayout {
  std::span<const std::uint8_t> sections[kSectionCount + 1];  // by id
  int version = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t row_count = 0;
  int group_size = 0;
};

/// Validates the header, directory and every section digest of a v4 or
/// v5 image (the caller has checked the magic). `bytes` is the whole file
/// (or mapping); `origin` names it in errors.
Status ParseImageHeader(std::span<const std::uint8_t> bytes,
                        const std::string& origin, ImageLayout* out) {
  if (bytes.size() < kFixedHeaderBytes) {
    return Status::Corruption(origin + ": truncated image header");
  }
  ByteReader header(bytes.first(kFixedHeaderBytes));
  char magic[8];
  header.Bytes(magic, sizeof(magic));
  out->version = magic[7] - '0';
  const std::uint32_t header_crc = header.U32();
  out->config_hash = header.U64();
  out->row_count = header.U64();
  const std::uint32_t group_size = header.U32();
  const std::uint32_t section_count = header.U32();
  if (section_count != kSectionCount) {
    return Status::Corruption(origin + ": image directory lists " +
                              std::to_string(section_count) +
                              " sections, expected " +
                              std::to_string(kSectionCount));
  }
  const std::size_t header_end =
      kFixedHeaderBytes + kSectionCount * kDirectoryEntryBytes;
  if (bytes.size() < header_end) {
    return Status::Corruption(origin + ": truncated section directory");
  }
  if (Crc32(bytes.subspan(12, header_end - 12)) != header_crc) {
    return Status::Corruption(origin + ": header digest mismatch");
  }
  if (out->row_count > (std::uint64_t{1} << 32)) {
    return Status::Corruption(origin + ": implausible row count");
  }
  if (group_size < 1 || group_size > (1u << 20)) {
    return Status::Corruption(origin + ": implausible SC group size");
  }
  out->group_size = static_cast<int>(group_size);
  ByteReader directory(
      bytes.subspan(kFixedHeaderBytes, header_end - kFixedHeaderBytes));
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    const std::uint32_t id = directory.U32();
    const std::uint32_t crc = directory.U32();
    const std::uint64_t offset = directory.U64();
    const std::uint64_t length = directory.U64();
    if (id != s + 1) {
      return Status::Corruption(origin + ": directory out of order (got id " +
                                std::to_string(id) + " at slot " +
                                std::to_string(s) + ")");
    }
    // Size-vs-directory gate: both bounds checked against the real byte
    // count before the section is ever dereferenced.
    if (offset % 8 != 0 || offset > bytes.size() ||
        length > bytes.size() - offset) {
      return Status::Corruption(origin + ": section " + std::to_string(id) +
                                " extends past the file end");
    }
    const auto section = bytes.subspan(offset, length);
    if (Crc32(section) != crc) {
      return Status::Corruption(origin + ": section " + std::to_string(id) +
                                " digest mismatch");
    }
    out->sections[id] = section;
  }
  // Column-shape cross-checks against the header's row count.
  if (out->sections[kSecSelf].size() != out->row_count * 8) {
    return Status::Corruption(origin + ": SELF column holds " +
                              std::to_string(out->sections[kSecSelf].size()) +
                              " bytes for " + std::to_string(out->row_count) +
                              " rows");
  }
  const std::size_t fps_entry_bytes =
      out->version == 4 ? kResidueImageBytes : kFingerprintImageBytes;
  if (out->sections[kSecFps].size() != out->row_count * fps_entry_bytes) {
    return Status::Corruption(origin + ": FPS column holds " +
                              std::to_string(out->sections[kSecFps].size()) +
                              " bytes for " + std::to_string(out->row_count) +
                              " rows");
  }
  return Status::Ok();
}

}  // namespace

bool LoadedCatalog::IsAncestor(NodeId x, NodeId y) const {
  // The fingerprint screen rejects almost every non-ancestor pair before a
  // limb is read, and x == y too (it compares bit lengths strictly).
  // Survivors take the exact divisibility test, bit-identical to the
  // BigInt one (reduction_test pins ReciprocalDivisor against
  // IsDivisibleBy).
  if (!FingerprintMayProperlyDivide(fps_[x], fps_[y])) return false;
  ReciprocalDivisor divisor;
  divisor.Assign(label_view(x));
  return divisor.Divides(label_view(y));
}

bool LoadedCatalog::IsParent(NodeId x, NodeId y) const {
  if (x == y) return false;
  return IsProductOf(label_view(y), label_view(x), self_of(y));
}

void LoadedCatalog::IsAncestorBatch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    std::vector<std::uint8_t>* results) const {
  IsAncestorBatchKernel(column(), pairs, results);
}

void LoadedCatalog::SelectDescendants(NodeId ancestor,
                                      std::span<const NodeId> candidates,
                                      std::vector<NodeId>* out) const {
  SelectKernel<Relation::kDescendant>(column(), ancestor, candidates, out);
}

void LoadedCatalog::SelectAncestors(NodeId descendant,
                                    std::span<const NodeId> candidates,
                                    std::vector<NodeId>* out) const {
  SelectKernel<Relation::kAncestor>(column(), descendant, candidates, out);
}

std::vector<CatalogRow> LoadedCatalog::MaterializeRows() const {
  // One front-to-back pass over the label/self/fps columns; restore the
  // point-lookup hint when done.
  AdviseAccess(AccessHint::kSequential);
  std::vector<CatalogRow> rows(meta_.size());
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    CatalogRow& row = rows[i];
    row.tag = meta_[i].tag;
    row.is_element = meta_[i].is_element;
    row.parent = meta_[i].parent;
    row.attributes = meta_[i].attributes;
    row.label = BigInt::FromLimbs(labels_[i]);
    row.self = selfs_[i];
    row.fingerprint = fps_[i];
  }
  AdviseAccess(AccessHint::kRandom);
  return rows;
}

Result<ScTable> LoadedCatalog::MaterializeScTable() const {
  // The image stores no orders: FromRecords derives each as sc mod
  // modulus.
  std::vector<ScRecord> records = sc_meta_;
  for (std::size_t r = 0; r < records.size(); ++r) {
    records[r].sc = BigInt::FromLimbs(sc_values_[r]);
  }
  return ScTable::FromRecords(sc_group_size_, std::move(records));
}

std::size_t LoadedCatalog::label_store_bytes() const {
  // The image columns themselves, plus the one private column the open
  // derives for order lookups.
  return labels_.byte_size() + sc_values_.byte_size() +
         meta_.size() * sizeof(LabelFingerprint) +
         orders_.size() * sizeof(std::uint64_t);
}

Status CheckRowStructure(std::size_t count,
                         const std::function<RowLink(std::size_t)>& link,
                         const std::string& origin) {
  if (count == 0) return Status::Corruption(origin + ": has no rows");
  const RowLink root = link(0);
  if (!root.is_element || root.parent != -1 || root.label.size() != 1 ||
      root.label[0] != 1) {
    return Status::Corruption(
        origin + ": row 0 is not a root element with parent -1 and label 1");
  }
  // Rows are in preorder exactly when each row's parent is on the path
  // from the root to the row before it. `path` holds that path with each
  // row's label, so every label is read from its column once.
  std::vector<std::pair<std::int64_t, LimbSpan>> path = {{0, root.label}};
  for (std::size_t i = 1; i < count; ++i) {
    const RowLink row = link(i);
    while (!path.empty() && path.back().first != row.parent) path.pop_back();
    if (path.empty()) {
      return Status::Corruption(origin + ": parent " +
                                std::to_string(row.parent) + " of row " +
                                std::to_string(i) +
                                " is not on the path from the root to row " +
                                std::to_string(i - 1));
    }
    if (!IsProductOf(row.label, path.back().second, row.self)) {
      return Status::Corruption(origin + ": label of row " +
                                std::to_string(i) +
                                " is not its parent's label times its "
                                "self-label");
    }
    path.emplace_back(static_cast<std::int64_t>(i), row.label);
  }
  return Status::Ok();
}

Status CheckRowStructure(const std::vector<CatalogRow>& rows,
                         const std::string& origin) {
  return CheckRowStructure(
      rows.size(),
      [&rows](std::size_t i) {
        const CatalogRow& row = rows[i];
        return RowLink{row.is_element, row.parent, row.label.Magnitude(),
                       row.self};
      },
      origin);
}

Status LoadedCatalog::ParseImage(std::span<const std::uint8_t> bytes,
                                 const std::string& origin,
                                 LoadedCatalog* out) {
  ImageLayout image;
  Status parsed = ParseImageHeader(bytes, origin, &image);
  if (!parsed.ok()) return parsed;
  out->format_version_ = image.version;
  out->sc_group_size_ = image.group_size;
  out->fingerprints_persisted_ = image.config_hash == FingerprintConfigHash();

  Result<LabelArena> labels =
      LabelArena::FromBytes(image.sections[kSecLabels], origin + " LABELS");
  if (!labels.ok()) return labels.status();
  out->labels_ = *labels;
  if (out->labels_.size() != image.row_count) {
    return Status::Corruption(origin + ": LABELS arena holds " +
                              std::to_string(out->labels_.size()) +
                              " rows, header says " +
                              std::to_string(image.row_count));
  }
  Result<LabelArena> sc_values =
      LabelArena::FromBytes(image.sections[kSecScVals], origin + " SCVALS");
  if (!sc_values.ok()) return sc_values.status();
  out->sc_values_ = *sc_values;

  // In-place column views. Section offsets are 8-aligned within the file
  // and the backing starts page- (mmap) or allocator- (ReadAll) aligned,
  // but a hostile/garbled directory could still slip an unaligned base
  // past us — re-check before punning.
  const std::uint8_t* self_base = image.sections[kSecSelf].data();
  const std::uint8_t* fps_base = image.sections[kSecFps].data();
  if (reinterpret_cast<std::uintptr_t>(self_base) % 8 != 0 ||
      reinterpret_cast<std::uintptr_t>(fps_base) % 8 != 0) {
    return Status::Corruption(origin + ": column section misaligned");
  }
  out->selfs_ = reinterpret_cast<const std::uint64_t*>(self_base);
  if (image.version == 4) {
    // 72-byte entries: keep each one's 16-byte tail.
    out->v4_fps_.resize(static_cast<std::size_t>(image.row_count));
    for (std::size_t i = 0; i < out->v4_fps_.size(); ++i) {
      out->v4_fps_[i] =
          FingerprintAt(fps_base + i * kResidueImageBytes + kResidueImageTail);
    }
    out->fps_ = out->v4_fps_.data();
  } else {
    out->fps_ = reinterpret_cast<const LabelFingerprint*>(fps_base);
  }

  // ROWMETA: the only per-row decode the open pays — tags and
  // attributes are variable-length strings the query layer needs as
  // std::string anyway.
  ByteReader rowmeta(image.sections[kSecRowMeta]);
  out->meta_.clear();
  out->meta_.reserve(static_cast<std::size_t>(image.row_count));
  for (std::uint64_t i = 0; i < image.row_count && rowmeta.ok(); ++i) {
    RowMeta meta;
    meta.tag = rowmeta.String();
    meta.is_element = rowmeta.U8() != 0;
    meta.parent = rowmeta.I64();
    const std::uint32_t attribute_count = rowmeta.U32();
    if (rowmeta.ok() && attribute_count > (1u << 20)) {
      return Status::Corruption(origin + ": implausible attribute count");
    }
    for (std::uint32_t a = 0; a < attribute_count && rowmeta.ok(); ++a) {
      std::string key = rowmeta.String();
      std::string value = rowmeta.String();
      meta.attributes.emplace_back(std::move(key), std::move(value));
    }
    out->meta_.push_back(std::move(meta));
  }
  if (!rowmeta.ok() || rowmeta.remaining() != 0 ||
      out->meta_.size() != image.row_count) {
    return Status::Corruption(origin + ": ROWMETA section does not decode to " +
                              std::to_string(image.row_count) + " rows");
  }

  // SCMETA: record shapes (moduli only; v4 also stored each order, which
  // is skipped) plus the (modulus, record) pairs the order column needs.
  // The pairs live in one flat vector, so the open frees no per-entry
  // nodes for the allocations that follow it (a recovered document's SC
  // table) to scatter into.
  ByteReader scmeta(image.sections[kSecScMeta]);
  const std::uint64_t record_count = scmeta.U64();
  // Bounded by the section's bytes (each record needs at least its 4-byte
  // entry count), not by the row count: a Delete leaves emptied records
  // in place, since deltas and recovery address records by index, so a
  // store that deleted most of its rows holds more records than rows.
  if (record_count > scmeta.remaining() / 4) {
    return Status::Corruption(origin + ": implausible SC record count");
  }
  const std::size_t entry_bytes = image.version == 4 ? 2 * 8 : 8;
  out->sc_meta_.clear();
  out->sc_meta_.reserve(static_cast<std::size_t>(record_count));
  std::vector<std::pair<std::uint64_t, std::uint32_t>> holders;
  holders.reserve(static_cast<std::size_t>(image.row_count));
  for (std::uint64_t r = 0; r < record_count && scmeta.ok(); ++r) {
    const std::uint32_t entries = scmeta.U32();
    if (scmeta.ok() && entries > scmeta.remaining() / entry_bytes) {
      return Status::Corruption(origin + ": implausible SC record size");
    }
    ScRecord record;
    record.moduli.reserve(entries);
    for (std::uint32_t i = 0; i < entries && scmeta.ok(); ++i) {
      record.moduli.push_back(scmeta.U64());
      if (image.version == 4) scmeta.U64();
    }
    if (!scmeta.ok()) break;
    for (std::uint64_t modulus : record.moduli) {
      // Orders are recovered as sc mod modulus: no division by 0 or 1.
      if (modulus < 2) {
        return Status::Corruption(origin + ": SC modulus " +
                                  std::to_string(modulus));
      }
      holders.emplace_back(modulus, static_cast<std::uint32_t>(r));
    }
    if (!record.moduli.empty()) {
      record.max_modulus =
          *std::max_element(record.moduli.begin(), record.moduli.end());
    }
    out->sc_meta_.push_back(std::move(record));
  }
  if (!scmeta.ok() || scmeta.remaining() != 0 ||
      out->sc_meta_.size() != record_count) {
    return Status::Corruption(origin + ": SCMETA section does not decode to " +
                              std::to_string(record_count) + " records");
  }
  if (out->sc_values_.size() != record_count) {
    return Status::Corruption(origin + ": SCVALS arena holds " +
                              std::to_string(out->sc_values_.size()) +
                              " records, SCMETA says " +
                              std::to_string(record_count));
  }

  std::sort(holders.begin(), holders.end());
  const auto twice = std::adjacent_find(
      holders.begin(), holders.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (twice != holders.end()) {
    return Status::Corruption(origin + ": duplicate SC modulus " +
                              std::to_string(twice->first));
  }

  // The order column: the paper's recovery, order = sc mod self, run once
  // per row here so OrderOf is an array read. Row 0 is the root (order
  // 0); any other row's self-label must be a prime of the stream, as
  // LabeledDocument's Adopt requires (a composite one would divide other
  // labels and answer ancestry wrongly), held by some record, and by no
  // other row: a prime shared by two rows would make divisibility mistake
  // one for the other's ancestor. Every modulus is some row's (checked
  // below), so the moduli are distinct primes too.
  out->orders_.assign(static_cast<std::size_t>(image.row_count), 0);
  std::vector<std::uint8_t> claimed(holders.size(), 0);
  for (std::size_t i = 1; i < out->orders_.size(); ++i) {
    const std::uint64_t self = out->selfs_[i];
    const Status prime = PrimeSource::CheckPrime(self);
    if (!prime.ok()) {
      return Status::Corruption(origin + ": self-label " +
                                std::to_string(self) + " of row " +
                                std::to_string(i) + " " + prime.message());
    }
    const auto holder = std::lower_bound(
        holders.begin(), holders.end(), std::pair{self, std::uint32_t{0}});
    if (holder == holders.end() || holder->first != self) {
      return Status::Corruption(origin + ": self-label " +
                                std::to_string(self) + " of row " +
                                std::to_string(i) +
                                " is held by no SC record");
    }
    std::uint8_t& taken = claimed[holder - holders.begin()];
    if (taken != 0) {
      return Status::Corruption(origin + ": self-label " +
                                std::to_string(self) + " of row " +
                                std::to_string(i) +
                                " repeats an earlier row's");
    }
    taken = 1;
    out->orders_[i] =
        recip::Mod2by1Spans(out->sc_values_[holder->second], self);
  }
  // And every SC modulus must be some row's self-label: an order no node
  // has would send the first ordered insert that shifts it looking for a
  // node to relabel.
  const auto unclaimed = std::find(claimed.begin(), claimed.end(), 0);
  if (unclaimed != claimed.end()) {
    return Status::Corruption(
        origin + ": SC modulus " +
        std::to_string(holders[unclaimed - claimed.begin()].first) +
        " is held by no row");
  }
  return CheckRowStructure(
      out->meta_.size(),
      [out](std::size_t i) {
        const RowMeta& meta = out->meta_[i];
        return RowLink{meta.is_element, meta.parent, out->labels_[i],
                       out->selfs_[i]};
      },
      origin);
}

void EncodeCatalogRow(const CatalogRow& row, bool with_fingerprint,
                      ByteWriter* out) {
  out->String(row.tag);
  out->U8(row.is_element ? 1 : 0);
  out->I64(row.parent);
  out->U32(static_cast<std::uint32_t>(row.attributes.size()));
  for (const auto& [key, value] : row.attributes) {
    out->String(key);
    out->String(value);
  }
  out->Big(row.label);
  out->U64(row.self);
  if (with_fingerprint) out->Bytes(&row.fingerprint, kFingerprintImageBytes);
}

Status DecodeCatalogRow(ByteReader* in, RowFingerprint fingerprint,
                        CatalogRow* row) {
  row->tag = in->String();
  row->is_element = in->U8() != 0;
  row->parent = in->I64();
  std::uint32_t attribute_count = in->U32();
  if (in->ok() && attribute_count > (1u << 20)) {
    return Status::ParseError("implausible attribute count");
  }
  row->attributes.clear();
  for (std::uint32_t a = 0; a < attribute_count && in->ok(); ++a) {
    std::string key = in->String();
    std::string value = in->String();
    row->attributes.emplace_back(std::move(key), std::move(value));
  }
  row->label = in->Big();
  row->self = in->U64();
  if (fingerprint != RowFingerprint::kNone) {
    std::uint8_t image[kResidueImageBytes];
    if (in->Bytes(image, RowFingerprintBytes(fingerprint))) {
      row->fingerprint = FingerprintAt(
          fingerprint == RowFingerprint::kImage ? image
                                                : image + kResidueImageTail);
    }
  }
  if (!in->ok()) return Status::ParseError("truncated catalog row");
  return Status::Ok();
}

std::size_t MinCatalogRowBytes(RowFingerprint fingerprint) {
  // Tag length, element flag, parent, attribute count, label length, self.
  constexpr std::size_t kBareRowBytes = 4 + 1 + 8 + 4 + 4 + 8;
  return kBareRowBytes + RowFingerprintBytes(fingerprint);
}

void EncodeScRecord(const ScRecord& record, ByteWriter* out) {
  out->U32(static_cast<std::uint32_t>(record.moduli.size()));
  for (std::uint64_t modulus : record.moduli) out->U64(modulus);
  out->Big(record.sc);
}

Status DecodeScRecord(ByteReader* in, bool with_orders, ScRecord* record) {
  std::uint32_t entries = in->U32();
  if (in->ok() && entries > (1u << 24)) {
    return Status::ParseError("implausible SC record size");
  }
  record->moduli.clear();
  std::vector<std::uint64_t> orders;
  for (std::uint32_t i = 0; i < entries && in->ok(); ++i) {
    record->moduli.push_back(in->U64());
    if (with_orders) orders.push_back(in->U64());
  }
  record->sc = in->Big();
  if (!in->ok()) return Status::ParseError("truncated SC record");
  // A stored order must be the one the paper recovers, sc mod modulus
  // (so below its modulus); the record then keeps none. A modulus below 2
  // is left to ScTable::FromRecords, which rejects it.
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const std::uint64_t modulus = record->moduli[i];
    if (modulus < 2) continue;
    const std::string stored = "SC record stores order " +
                               std::to_string(orders[i]) + " for modulus " +
                               std::to_string(modulus);
    if (orders[i] >= modulus) return Status::Corruption(stored);
    const std::uint64_t recovered = record->sc.ModU64(modulus);
    if (orders[i] != recovered) {
      return Status::Corruption(stored + " but its SC value leaves " +
                                std::to_string(recovered));
    }
  }
  return Status::Ok();
}

namespace {

/// Assembles a v5 sectioned image (layout documented at the top of this
/// file and in catalog.h / DESIGN.md §15).
std::vector<std::uint8_t> EncodeCatalogImage(
    const std::vector<CatalogRow>& rows, const ScTable& sc_table) {
  ByteWriter rowmeta;
  ByteWriter self_col;
  LabelArenaBuilder labels;
  ByteWriter fps;
  for (const CatalogRow& row : rows) {
    rowmeta.String(row.tag);
    rowmeta.U8(row.is_element ? 1 : 0);
    rowmeta.I64(row.parent);
    rowmeta.U32(static_cast<std::uint32_t>(row.attributes.size()));
    for (const auto& [key, value] : row.attributes) {
      rowmeta.String(key);
      rowmeta.String(value);
    }
    self_col.U64(row.self);
    labels.Append(row.label.Magnitude());
    fps.Bytes(&row.fingerprint, kFingerprintImageBytes);
  }
  ByteWriter scmeta;
  LabelArenaBuilder sc_values;
  scmeta.U64(sc_table.records().size());
  for (const ScRecord& record : sc_table.records()) {
    scmeta.U32(static_cast<std::uint32_t>(record.moduli.size()));
    for (std::uint64_t modulus : record.moduli) scmeta.U64(modulus);
    sc_values.Append(record.sc.Magnitude());
  }

  const std::vector<std::uint8_t> section_bytes[kSectionCount] = {
      rowmeta.Take(), self_col.Take(), labels.Encode(),
      fps.Take(),     scmeta.Take(),   sc_values.Encode()};

  const std::size_t header_end =
      kFixedHeaderBytes + kSectionCount * kDirectoryEntryBytes;
  // Header tail: every byte after the CRC field, so one digest covers the
  // scalars and the whole directory.
  ByteWriter tail;
  tail.U64(FingerprintConfigHash());
  tail.U64(rows.size());
  tail.U32(static_cast<std::uint32_t>(sc_table.group_size()));
  tail.U32(kSectionCount);
  std::size_t offsets[kSectionCount];
  std::size_t offset = Align8(header_end);
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    offsets[s] = offset;
    tail.U32(s + 1);
    tail.U32(Crc32(section_bytes[s]));
    tail.U64(offset);
    tail.U64(section_bytes[s].size());
    offset = Align8(offset + section_bytes[s].size());
  }

  ByteWriter out;
  out.Bytes(kMagicPrefix, sizeof(kMagicPrefix));
  out.U8(static_cast<std::uint8_t>('0' + kCatalogFormatVersion));
  out.U32(Crc32(tail.buffer()));
  out.Bytes(tail.buffer().data(), tail.buffer().size());
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    while (out.buffer().size() < offsets[s]) out.U8(0);
    if (!section_bytes[s].empty()) {
      out.Bytes(section_bytes[s].data(), section_bytes[s].size());
    }
  }
  return out.Take();
}

}  // namespace

Result<LoadedCatalog> LoadedCatalog::FromRows(
    const std::vector<CatalogRow>& rows, const ScTable& sc_table,
    const std::string& origin) {
  LoadedCatalog catalog;
  catalog.owned_bytes_ = EncodeCatalogImage(rows, sc_table);
  Status parsed = ParseImage(catalog.owned_bytes_, origin, &catalog);
  if (!parsed.ok()) return parsed;
  return catalog;
}

Status WriteCatalog(Vfs& vfs, const std::string& path,
                    const std::vector<CatalogRow>& rows,
                    const ScTable& sc_table) {
  return vfs.WriteWhole(path, EncodeCatalogImage(rows, sc_table));
}

Result<CatalogState> LoadCatalog(Vfs& vfs, const std::string& path) {
  Result<std::vector<std::uint8_t>> read = vfs.ReadAll(path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("cannot open '" + path + "'");
    }
    return read.status();
  }
  ByteReader reader(*read);
  char magic[8] = {};
  reader.Bytes(magic, sizeof(magic));
  if (!reader.ok() ||
      std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) != 0) {
    return Status::ParseError("'" + path + "' is not a primelabel catalog");
  }
  // Explicit version gate: name what was found and what this binary
  // supports, so a stale file or a too-new writer is diagnosable from the
  // message alone (no silent acceptance, no bare "bad magic").
  const int version = magic[7] - '0';
  if (version < kCatalogMinSupportedVersion ||
      version > kCatalogFormatVersion) {
    const bool is_digit = magic[7] >= '0' && magic[7] <= '9';
    return Status::ParseError(
        "catalog '" + path + "' has format version " +
        (is_digit ? std::to_string(version)
                  : "'" + std::string(1, magic[7]) + "'") +
        "; this build supports versions " +
        std::to_string(kCatalogMinSupportedVersion) + " .. " +
        std::to_string(kCatalogFormatVersion));
  }
  CatalogState state;
  if (version >= 4) {
    // One validation path for every sectioned image: parse it in place,
    // then materialize the rows the delta/recovery paths mutate.
    LoadedCatalog image;
    Status parsed =
        LoadedCatalog::ParseImage(*read, "catalog '" + path + "'", &image);
    if (!parsed.ok()) return parsed;
    Result<ScTable> sc_table = image.MaterializeScTable();
    if (!sc_table.ok()) {
      return Status::Corruption("catalog '" + path +
                                "': " + sc_table.status().message());
    }
    state.rows = image.MaterializeRows();
    state.sc_table = std::move(sc_table.value());
    state.fingerprints_valid = image.fingerprints_persisted_;
    return state;
  }
  const bool v3 = version >= 3;
  // A v3 file computed its fingerprints against a specific configuration;
  // a mismatch means the persisted fingerprints describe a different
  // prime list and must be recomputed (fall back, do not fail — labels
  // are still exact).
  if (v3) state.fingerprints_valid = reader.U64() == FingerprintConfigHash();
  const RowFingerprint fingerprint =
      v3 ? RowFingerprint::kResidueImage : RowFingerprint::kNone;

  // v2/v3 carry no checksum: bound the row count by the bytes left before
  // reserving for it, so a flipped high bit fails typed instead of
  // sizing an allocation.
  const std::uint64_t row_count = reader.U64();
  if (row_count > reader.remaining() / MinCatalogRowBytes(fingerprint)) {
    return Status::ParseError("catalog '" + path + "' claims " +
                              std::to_string(row_count) +
                              " rows, more than its remaining " +
                              std::to_string(reader.remaining()) +
                              " bytes can hold");
  }
  state.rows.reserve(row_count);
  for (std::uint64_t i = 0; i < row_count && reader.ok(); ++i) {
    CatalogRow row;
    Status decoded = DecodeCatalogRow(&reader, fingerprint, &row);
    if (!decoded.ok()) {
      // Truncation falls through to the generic corrupt-catalog error;
      // a tripped plausibility gate reports its specific message.
      if (!reader.ok()) break;
      return decoded;
    }
    state.rows.push_back(std::move(row));
  }

  int group_size = static_cast<int>(reader.U32());
  std::uint64_t record_count = reader.U64();
  std::vector<ScRecord> records;
  for (std::uint64_t r = 0; r < record_count && reader.ok(); ++r) {
    ScRecord record;
    Status decoded = DecodeScRecord(&reader, /*with_orders=*/true, &record);
    if (!decoded.ok()) {
      if (!reader.ok()) break;
      return Status(decoded.code(),
                    "catalog '" + path + "': " + decoded.message());
    }
    records.push_back(std::move(record));
  }
  if (!reader.ok() || group_size < 1) {
    return Status::ParseError("truncated or corrupt catalog '" + path + "'");
  }
  // The image branch above checks its rows in ParseImage; recovery
  // indexes these by parent too, so they take the same check.
  Status structure = CheckRowStructure(state.rows, "catalog '" + path + "'");
  if (!structure.ok()) return structure;
  Result<ScTable> sc_table =
      ScTable::FromRecords(group_size, std::move(records));
  if (!sc_table.ok()) {
    return Status::Corruption("catalog '" + path +
                              "': " + sc_table.status().message());
  }
  state.sc_table = std::move(sc_table.value());
  return state;
}

Result<LoadedCatalog> OpenCatalogMapped(Vfs& vfs, const std::string& path) {
  Result<std::unique_ptr<MappedRegion>> mapped = vfs.MapReadOnly(path);
  if (!mapped.ok()) {
    if (mapped.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("cannot open '" + path + "'");
    }
    return mapped.status();
  }
  const std::span<const std::uint8_t> bytes = (*mapped)->bytes();
  const std::string origin = "catalog '" + path + "'";
  if (bytes.size() >= 8 &&
      std::memcmp(bytes.data(), kMagicPrefix, sizeof(kMagicPrefix)) == 0 &&
      bytes[7] == '0' + kCatalogFormatVersion) {
    // ParseImage sweeps the whole image front to back (section digests,
    // ROWMETA decode): tell the kernel to read ahead and not keep pages
    // behind the cursor.
    (*mapped)->Advise(AccessHint::kSequential);
    LoadedCatalog catalog;
    Status parsed = LoadedCatalog::ParseImage(bytes, origin, &catalog);
    if (!parsed.ok()) return parsed;  // corruption is never converted
    if (catalog.fingerprints_persisted_) {
      // Serving flips to point lookups: label probes land wherever the
      // query takes them, so read-around would only evict useful pages.
      (*mapped)->Advise(AccessHint::kRandom);
      catalog.mapped_ = std::move(*mapped);
      return catalog;
    }
    // Stale fingerprint config: the FPS column describes another residue
    // system, so serving it in place would screen with wrong fingerprints.
  }
  // Not servable in place (a v2/v3/v4 file, or a stale fingerprint
  // config): decode it, derive fingerprints the file cannot supply, and
  // serve a v5 image of the same rows from memory. LoadCatalog verifies a
  // v4 file's digests first, so corruption is not converted either, and
  // it reports the precise magic/version error for anything that is not
  // a catalog.
  Result<CatalogState> state = LoadCatalog(vfs, path);
  if (!state.ok()) return state.status();
  if (!state->fingerprints_valid) {
    for (CatalogRow& row : state->rows) {
      row.fingerprint = FingerprintOf(row.label);
    }
  }
  Result<LoadedCatalog> catalog =
      LoadedCatalog::FromRows(state->rows, state->sc_table, origin);
  if (!catalog.ok()) return catalog.status();
  catalog->format_version_ = bytes[7] - '0';
  catalog->fingerprints_persisted_ = state->fingerprints_valid;
  return catalog;
}

}  // namespace primelabel
