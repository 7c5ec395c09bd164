#include "durability/delta.h"

#include <algorithm>
#include <cstring>

#include "durability/frame.h"
#include "util/binio.h"

namespace primelabel {

namespace {

/// The 7-byte magic prefix; the eighth byte is the format digit. EncodeDelta
/// writes '2'; DecodeDelta also reads '1'.
constexpr char kDeltaMagicPrefix[7] = {'P', 'L', 'D', 'E', 'L', 'T', 'A'};
constexpr std::size_t kDeltaMagicBytes = 8;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void FnvBytes(std::uint64_t* h, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void FnvU64(std::uint64_t* h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  FnvBytes(h, b, 8);
}

}  // namespace

std::uint64_t CatalogRowHash(const CatalogRow& row,
                             std::uint64_t parent_self) {
  std::uint64_t h = kFnvOffset;
  FnvU64(&h, row.tag.size());
  FnvBytes(&h, row.tag.data(), row.tag.size());
  FnvU64(&h, row.is_element ? 1 : 0);
  FnvU64(&h, row.attributes.size());
  for (const auto& [key, value] : row.attributes) {
    FnvU64(&h, key.size());
    FnvBytes(&h, key.data(), key.size());
    FnvU64(&h, value.size());
    FnvBytes(&h, value.data(), value.size());
  }
  const std::vector<std::uint8_t> label = row.label.ToMagnitudeBytes();
  FnvU64(&h, label.size());
  FnvBytes(&h, label.data(), label.size());
  FnvU64(&h, row.self);
  FnvU64(&h, parent_self);
  // The fingerprint is derived from the label and deliberately excluded.
  return h;
}

std::uint64_t CatalogRowsDigest(const std::vector<CatalogRow>& rows) {
  std::uint64_t h = kFnvOffset;
  FnvU64(&h, rows.size());
  for (const CatalogRow& row : rows) {
    const std::uint64_t parent_self =
        row.parent < 0 ? 0
                       : rows[static_cast<std::size_t>(row.parent)].self;
    FnvU64(&h, CatalogRowHash(row, parent_self));
  }
  return h;
}

std::uint64_t ScRecordHash(const ScRecord& record) {
  std::uint64_t h = kFnvOffset;
  FnvU64(&h, record.moduli.size());
  for (std::uint64_t modulus : record.moduli) FnvU64(&h, modulus);
  const std::span<const std::uint64_t> sc = record.sc.Magnitude();
  FnvU64(&h, sc.size());
  for (std::uint64_t limb : sc) FnvU64(&h, limb);
  return h;
}

BaseRowIndex BuildBaseRowIndex(const std::vector<CatalogRow>& rows) {
  BaseRowIndex index;
  index.reserve(rows.size());
  for (const CatalogRow& row : rows) {
    const std::uint64_t parent_self =
        row.parent < 0 ? 0
                       : rows[static_cast<std::size_t>(row.parent)].self;
    index[row.self] = BaseRowEntry{CatalogRowHash(row, parent_self),
                                   parent_self};
  }
  return index;
}

std::vector<std::uint64_t> ScRecordHashes(const ScTable& sc_table) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(sc_table.records().size());
  for (const ScRecord& record : sc_table.records()) {
    hashes.push_back(ScRecordHash(record));
  }
  return hashes;
}

DeltaSnapshot BuildDelta(std::uint64_t base_epoch,
                         const BaseRowIndex& base_index,
                         const std::vector<std::uint64_t>& base_sc_hashes,
                         const std::vector<CatalogRow>& final_rows,
                         const ScTable& final_sc) {
  DeltaSnapshot delta;
  delta.base_epoch = base_epoch;
  delta.final_row_count = final_rows.size();
  delta.final_digest = CatalogRowsDigest(final_rows);
  delta.fingerprints = true;

  // Final-side structure: children lists + per-row predecessor sibling.
  std::vector<std::uint64_t> parent_self(final_rows.size(), 0);
  std::vector<std::uint64_t> pred_self(final_rows.size(), 0);
  {
    std::unordered_map<std::int64_t, std::uint64_t> last_child_self;
    for (std::size_t i = 0; i < final_rows.size(); ++i) {
      const CatalogRow& row = final_rows[i];
      if (row.parent >= 0) {
        parent_self[i] =
            final_rows[static_cast<std::size_t>(row.parent)].self;
        // Preorder lists a parent's children in sibling order, so the
        // previous child seen under this parent is row i's predecessor.
        auto it = last_child_self.find(row.parent);
        pred_self[i] = it == last_child_self.end() ? 0 : it->second;
        last_child_self[row.parent] = row.self;
      }
    }
  }

  std::unordered_map<std::uint64_t, bool> final_selves;
  final_selves.reserve(final_rows.size());
  for (const CatalogRow& row : final_rows) final_selves[row.self] = true;

  for (std::size_t i = 0; i < final_rows.size(); ++i) {
    const CatalogRow& row = final_rows[i];
    auto base = base_index.find(row.self);
    std::uint8_t flags = 0;
    if (base == base_index.end()) {
      flags = kDeltaPatchNew;
    } else {
      const std::uint64_t hash = CatalogRowHash(row, parent_self[i]);
      if (hash == base->second.hash) continue;  // unchanged
      if (base->second.parent_self != parent_self[i]) {
        flags = kDeltaPatchMoved;
      }
    }
    DeltaPatch patch;
    patch.flags = flags;
    patch.parent_self = parent_self[i];
    patch.pred_self = pred_self[i];
    patch.row = row;
    delta.patches.push_back(std::move(patch));
  }

  // Tombstones: base selves gone from the final state, skipping those
  // whose base parent is also gone — detaching the topmost root of a
  // removed region removes the whole base subtree (nothing under a
  // deleted node survives: Delete detaches subtrees, and an SC-relabeled
  // victim's surviving children show up above as moved patches).
  for (const auto& [self, entry] : base_index) {
    if (final_selves.count(self) != 0) continue;
    const bool parent_also_gone = entry.parent_self != 0 &&
                                  base_index.count(entry.parent_self) != 0 &&
                                  final_selves.count(entry.parent_self) == 0;
    if (!parent_also_gone) delta.tombstones.push_back(self);
  }
  std::sort(delta.tombstones.begin(), delta.tombstones.end());

  delta.sc_group_size = final_sc.group_size();
  delta.sc_final_record_count = final_sc.records().size();
  for (std::size_t r = 0; r < final_sc.records().size(); ++r) {
    const std::uint64_t hash = ScRecordHash(final_sc.records()[r]);
    if (r < base_sc_hashes.size() && base_sc_hashes[r] == hash) continue;
    delta.sc_changes.emplace_back(r, final_sc.records()[r]);
  }
  return delta;
}

std::vector<std::uint8_t> EncodeDelta(const DeltaSnapshot& delta) {
  ByteWriter writer;
  writer.Bytes(kDeltaMagicPrefix, sizeof(kDeltaMagicPrefix));
  writer.U8(static_cast<std::uint8_t>('2'));
  writer.U64(delta.base_epoch);
  writer.U64(delta.final_row_count);
  writer.U64(delta.final_digest);
  writer.U8(delta.fingerprints ? 1 : 0);
  writer.U64(delta.tombstones.size());
  for (std::uint64_t self : delta.tombstones) writer.U64(self);
  writer.U64(delta.patches.size());
  for (const DeltaPatch& patch : delta.patches) {
    writer.U8(patch.flags);
    writer.U64(patch.parent_self);
    writer.U64(patch.pred_self);
    EncodeCatalogRow(patch.row, delta.fingerprints, &writer);
  }
  writer.U32(static_cast<std::uint32_t>(delta.sc_group_size));
  writer.U64(delta.sc_final_record_count);
  writer.U64(delta.sc_changes.size());
  for (const auto& [index, record] : delta.sc_changes) {
    writer.U64(index);
    EncodeScRecord(record, &writer);
  }
  const std::uint32_t crc = Crc32(writer.buffer());
  writer.U32(crc);
  return writer.Take();
}

Result<DeltaSnapshot> DecodeDelta(std::span<const std::uint8_t> bytes,
                                  const std::string& origin) {
  if (bytes.size() < kDeltaMagicBytes + 4 ||
      std::memcmp(bytes.data(), kDeltaMagicPrefix,
                  sizeof(kDeltaMagicPrefix)) != 0 ||
      (bytes[7] != '1' && bytes[7] != '2')) {
    return Status::ParseError(origin + " is not a delta snapshot");
  }
  // PLDELTA1 stored 72-byte fingerprint images and explicit SC orders.
  const bool v1 = bytes[7] == '1';
  // Trailing CRC covers everything before it; a torn or bit-flipped delta
  // is rejected before any field is believed.
  ByteReader crc_reader(bytes.subspan(bytes.size() - 4));
  const std::uint32_t want_crc = crc_reader.U32();
  if (Crc32(bytes.subspan(0, bytes.size() - 4)) != want_crc) {
    return Status::ParseError(origin + " failed its checksum");
  }

  ByteReader reader(bytes.subspan(kDeltaMagicBytes,
                                  bytes.size() - 4 - kDeltaMagicBytes));
  DeltaSnapshot delta;
  delta.base_epoch = reader.U64();
  delta.final_row_count = reader.U64();
  delta.final_digest = reader.U64();
  delta.fingerprints = reader.U8() != 0;
  const RowFingerprint fingerprint =
      !delta.fingerprints ? RowFingerprint::kNone
      : v1                ? RowFingerprint::kResidueImage
                          : RowFingerprint::kImage;
  // Counts are only believed as far as the remaining bytes can back them,
  // so a crafted count cannot size the reservations. A tombstone is one
  // u64.
  const std::uint64_t tombstone_count = reader.U64();
  if (!reader.ok() || tombstone_count > (1ull << 32)) {
    return Status::ParseError(origin + " has an implausible tombstone count");
  }
  delta.tombstones.reserve(
      std::min<std::uint64_t>(tombstone_count, reader.remaining() / 8));
  for (std::uint64_t i = 0; i < tombstone_count && reader.ok(); ++i) {
    delta.tombstones.push_back(reader.U64());
  }
  const std::uint64_t patch_count = reader.U64();
  if (!reader.ok() || patch_count > (1ull << 32)) {
    return Status::ParseError(origin + " has an implausible patch count");
  }
  // A patch is its flags and two selves, then a row image.
  const std::size_t min_patch_bytes =
      1 + 8 + 8 + MinCatalogRowBytes(fingerprint);
  delta.patches.reserve(std::min<std::uint64_t>(
      patch_count, reader.remaining() / min_patch_bytes));
  for (std::uint64_t i = 0; i < patch_count && reader.ok(); ++i) {
    DeltaPatch patch;
    patch.flags = reader.U8();
    patch.parent_self = reader.U64();
    patch.pred_self = reader.U64();
    Status decoded = DecodeCatalogRow(&reader, fingerprint, &patch.row);
    if (!decoded.ok()) return Status::ParseError(origin + ": " +
                                                 decoded.message());
    delta.patches.push_back(std::move(patch));
  }
  delta.sc_group_size = static_cast<int>(reader.U32());
  delta.sc_final_record_count = reader.U64();
  const std::uint64_t change_count = reader.U64();
  if (!reader.ok() || change_count > (1ull << 32)) {
    return Status::ParseError(origin + " has an implausible SC change count");
  }
  for (std::uint64_t i = 0; i < change_count && reader.ok(); ++i) {
    const std::uint64_t index = reader.U64();
    ScRecord record;
    Status decoded = DecodeScRecord(&reader, /*with_orders=*/v1, &record);
    if (!decoded.ok()) {
      return Status(decoded.code(), origin + ": " + decoded.message());
    }
    delta.sc_changes.emplace_back(index, std::move(record));
  }
  if (!reader.ok() || delta.sc_group_size < 1) {
    return Status::ParseError(origin + " is truncated or corrupt");
  }
  return delta;
}

namespace {

/// Mutable node pool for ApplyDelta. "Detach" only unlinks (node objects
/// persist), so a node moved out from under a tombstoned subtree is still
/// reachable for re-placement; unreferenced nodes are simply never emitted.
struct PoolNode {
  CatalogRow row;
  std::int64_t parent = -1;  ///< pool index, -1 when detached/root
  std::vector<std::size_t> kids;
};

class ApplyContext {
 public:
  Status Detach(std::size_t idx) {
    PoolNode& node = pool_[idx];
    if (node.parent >= 0) {
      auto& kids = pool_[static_cast<std::size_t>(node.parent)].kids;
      auto it = std::find(kids.begin(), kids.end(), idx);
      if (it == kids.end()) {
        return Status::Internal("delta apply: child link missing");
      }
      kids.erase(it);
      node.parent = -1;
    }
    return Status::Ok();
  }

  Status AttachAfter(std::size_t idx, std::uint64_t parent_self,
                     std::uint64_t pred_self) {
    auto parent_it = self_map_.find(parent_self);
    if (parent_it == self_map_.end()) {
      return Status::Internal("delta apply: parent self-label " +
                              std::to_string(parent_self) + " not found");
    }
    const std::size_t parent_idx = parent_it->second;
    auto& kids = pool_[parent_idx].kids;
    std::size_t at = 0;
    if (pred_self != 0) {
      auto pred_it = self_map_.find(pred_self);
      if (pred_it == self_map_.end()) {
        return Status::Internal("delta apply: predecessor self-label " +
                                std::to_string(pred_self) + " not found");
      }
      auto pos = std::find(kids.begin(), kids.end(), pred_it->second);
      if (pos == kids.end()) {
        return Status::Internal(
            "delta apply: predecessor is not a child of the named parent");
      }
      at = static_cast<std::size_t>(pos - kids.begin()) + 1;
    }
    kids.insert(kids.begin() + static_cast<std::ptrdiff_t>(at), idx);
    pool_[idx].parent = static_cast<std::int64_t>(parent_idx);
    return Status::Ok();
  }

  std::vector<PoolNode> pool_;
  std::unordered_map<std::uint64_t, std::size_t> self_map_;
};

}  // namespace

Status ApplyDelta(const DeltaSnapshot& delta, CatalogState* state) {
  // BuildDelta emits every new row as a patch and every appended SC
  // record as a change, so neither final count can exceed base plus
  // delta entries. Checked before anything is sized from them.
  if (delta.final_row_count > state->rows.size() + delta.patches.size()) {
    return Status::Internal(
        "delta apply: final row count " +
        std::to_string(delta.final_row_count) + " exceeds " +
        std::to_string(state->rows.size()) + " base rows plus " +
        std::to_string(delta.patches.size()) + " patches");
  }
  const std::size_t base_records = state->sc_table.records().size();
  if (delta.sc_final_record_count >
      base_records + delta.sc_changes.size()) {
    return Status::Internal(
        "delta apply: final SC record count " +
        std::to_string(delta.sc_final_record_count) + " exceeds " +
        std::to_string(base_records) + " base records plus " +
        std::to_string(delta.sc_changes.size()) + " changes");
  }
  ApplyContext ctx;
  ctx.pool_.reserve(state->rows.size() + delta.patches.size());
  for (std::size_t i = 0; i < state->rows.size(); ++i) {
    PoolNode node;
    node.row = std::move(state->rows[i]);
    node.parent = node.row.parent;
    ctx.self_map_[node.row.self] = i;
    ctx.pool_.push_back(std::move(node));
  }
  // Child links in a second pass; base preorder lists each parent's
  // children in sibling order.
  for (std::size_t i = 0; i < ctx.pool_.size(); ++i) {
    const std::int64_t parent = ctx.pool_[i].parent;
    if (parent >= 0) {
      ctx.pool_[static_cast<std::size_t>(parent)].kids.push_back(i);
    }
  }
  if (ctx.pool_.empty()) {
    return Status::Internal("delta apply: empty base state");
  }

  for (std::uint64_t self : delta.tombstones) {
    auto it = ctx.self_map_.find(self);
    if (it == ctx.self_map_.end()) {
      return Status::Internal("delta apply: tombstone self-label " +
                              std::to_string(self) + " not found in base");
    }
    Status detached = ctx.Detach(it->second);
    if (!detached.ok()) return detached;
  }

  for (const DeltaPatch& patch : delta.patches) {
    if ((patch.flags & kDeltaPatchNew) != 0) {
      const std::size_t idx = ctx.pool_.size();
      PoolNode node;
      node.row = patch.row;
      ctx.pool_.push_back(std::move(node));
      if (!ctx.self_map_.emplace(patch.row.self, idx).second) {
        return Status::Internal("delta apply: new row self-label " +
                                std::to_string(patch.row.self) +
                                " already exists");
      }
      if (patch.parent_self == 0) {
        return Status::Internal("delta apply: new row cannot be the root");
      }
      Status attached = ctx.AttachAfter(idx, patch.parent_self,
                                        patch.pred_self);
      if (!attached.ok()) return attached;
      continue;
    }
    auto it = ctx.self_map_.find(patch.row.self);
    if (it == ctx.self_map_.end()) {
      return Status::Internal("delta apply: patched self-label " +
                              std::to_string(patch.row.self) +
                              " not found in base");
    }
    const std::size_t idx = it->second;
    ctx.pool_[idx].row = patch.row;
    if ((patch.flags & kDeltaPatchMoved) != 0) {
      if (patch.parent_self == 0) {
        return Status::Internal("delta apply: cannot move the root");
      }
      Status detached = ctx.Detach(idx);
      if (!detached.ok()) return detached;
      Status attached = ctx.AttachAfter(idx, patch.parent_self,
                                        patch.pred_self);
      if (!attached.ok()) return attached;
    }
  }

  // Emit final preorder from the root. Deleted subtrees are simply never
  // reached.
  std::vector<CatalogRow> final_rows;
  final_rows.reserve(delta.final_row_count);
  std::vector<std::int64_t> emitted_at(ctx.pool_.size(), -1);
  struct StackEntry {
    std::size_t idx;
    std::int64_t parent_row;
  };
  std::vector<StackEntry> stack;
  stack.push_back({0, -1});
  while (!stack.empty()) {
    const StackEntry top = stack.back();
    stack.pop_back();
    const std::int64_t row_index =
        static_cast<std::int64_t>(final_rows.size());
    emitted_at[top.idx] = row_index;
    CatalogRow row = std::move(ctx.pool_[top.idx].row);
    row.parent = top.parent_row;
    final_rows.push_back(std::move(row));
    const auto& kids = ctx.pool_[top.idx].kids;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, row_index});
    }
  }

  if (final_rows.size() != delta.final_row_count) {
    return Status::Internal(
        "delta apply diverged: produced " +
        std::to_string(final_rows.size()) + " rows, delta recorded " +
        std::to_string(delta.final_row_count));
  }
  if (CatalogRowsDigest(final_rows) != delta.final_digest) {
    return Status::Internal("delta apply diverged: row digest mismatch");
  }

  // SC overlay: the record vector is append-only, so the final count can
  // only grow and changed records are addressed by index.
  std::vector<ScRecord> records = state->sc_table.records();
  if (delta.sc_final_record_count < records.size()) {
    return Status::Internal("delta apply: SC record count shrank");
  }
  records.resize(delta.sc_final_record_count);
  for (const auto& [index, record] : delta.sc_changes) {
    if (index >= records.size()) {
      return Status::Internal("delta apply: SC change index out of range");
    }
    records[index] = record;
  }
  Result<ScTable> sc_table =
      ScTable::FromRecords(delta.sc_group_size, std::move(records));
  if (!sc_table.ok()) {
    return Status::Corruption("delta apply: " + sc_table.status().message());
  }
  state->rows = std::move(final_rows);
  state->sc_table = std::move(sc_table.value());
  state->fingerprints_valid =
      state->fingerprints_valid && delta.fingerprints;
  return Status::Ok();
}

}  // namespace primelabel
