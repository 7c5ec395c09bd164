#ifndef PRIMELABEL_TESTS_DELTA_ENCODER_H_
#define PRIMELABEL_TESTS_DELTA_ENCODER_H_

#include <cstdint>
#include <vector>

#include "durability/crc32.h"
#include "durability/delta.h"
#include "store/catalog.h"
#include "util/binio.h"

namespace primelabel {

// The PLDELTA2 encoder: the tests' way to craft delta files. No build
// writes deltas any more (durability/delta.h is a reader); the tests
// still need them to check that DurableDocumentStore::Open reads and
// compacts the chains older builds left.

/// Serializes a delta as "PLDELTA2" + body + a trailing CRC-32 of
/// everything before it.
inline std::vector<std::uint8_t> EncodeDelta(const DeltaSnapshot& delta) {
  ByteWriter writer;
  writer.Bytes("PLDELTA2", 8);
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

}  // namespace primelabel

#endif  // PRIMELABEL_TESTS_DELTA_ENCODER_H_
