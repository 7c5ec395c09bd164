#ifndef PRIMELABEL_DURABILITY_DELTA_H_
#define PRIMELABEL_DURABILITY_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/sc_table.h"
#include "store/catalog.h"
#include "util/status.h"

namespace primelabel {

// Delta snapshots ("delta-<epoch>.pld"): a read-only format.
//
// Older builds could checkpoint an epoch as a delta against a base epoch
// instead of a full catalog. This build writes full v5 snapshots only;
// DurableDocumentStore::Open still reads a delta chain an older build
// left, and compacts it into a full snapshot before it returns. A delta
// records, against its base epoch:
//
//   - tombstones: self-labels of removed base subtree roots,
//   - patches: full row images of every row that is new or whose content
//     (tag, attributes, label, self, parent) changed, in FINAL preorder,
//     each with its final parent's and preceding sibling's self-labels so
//     apply can place it structurally,
//   - changed SC records by index (the writer only appended records, so
//     an index named the same record in base and final state).
//
// PLDELTA2 persists a patch row's fingerprint as its 16-byte image and an
// SC record as its moduli plus its SC value; the decoder derives each
// order as sc mod modulus. PLDELTA1 stored 72-byte fingerprint images
// (chunk residues in front) and an order beside every modulus.
//
// The file carries the final row count and a digest of the final row set,
// and ApplyDelta verifies both — a wrong delta fails loudly with kInternal
// instead of diverging silently.
//
// Correctness of the placement pass rests on an ordering invariant of the
// labeling scheme: surviving nodes never reorder relative to each other
// (insertions add nodes, deletions remove subtrees, and SC relabels
// replace a node's identity — classified as tombstone + new). So
// unpatched rows keep their base relative order, and placing patches in
// final preorder against (parent_self, pred_self) anchors reconstructs the
// final preorder exactly.

/// Order-sensitive digest of a full row set (parents resolved through the
/// row indices). This is the value a delta file pins the final state to.
std::uint64_t CatalogRowsDigest(const std::vector<CatalogRow>& rows);

/// One delta patch: a full final row image plus its structural anchors.
struct DeltaPatch {
  /// bit 0: row is new (no base row with this self-label);
  /// bit 1: row moved (its parent's self-label changed) — apply must
  /// detach and re-place it, not just overwrite content.
  std::uint8_t flags = 0;
  std::uint64_t parent_self = 0;  ///< 0 for the root
  std::uint64_t pred_self = 0;    ///< preceding sibling; 0 = first child
  CatalogRow row;
};
inline constexpr std::uint8_t kDeltaPatchNew = 1;
inline constexpr std::uint8_t kDeltaPatchMoved = 2;

struct DeltaSnapshot {
  std::uint64_t base_epoch = 0;
  std::uint64_t final_row_count = 0;
  std::uint64_t final_digest = 0;
  /// Patch rows carry adoptable fingerprints. Every delta writer set it;
  /// files with the flag clear still decode and apply.
  bool fingerprints = false;
  std::vector<std::uint64_t> tombstones;
  std::vector<DeltaPatch> patches;  ///< in final preorder
  int sc_group_size = 0;
  std::uint64_t sc_final_record_count = 0;
  std::vector<std::pair<std::uint64_t, ScRecord>> sc_changes;
};

/// Parses and CRC-checks a PLDELTA1 or PLDELTA2 file image. kParseError
/// on damage; kCorruption on an SC modulus below 2.
Result<DeltaSnapshot> DecodeDelta(std::span<const std::uint8_t> bytes,
                                  const std::string& origin);

/// Applies `delta` to `state` (the loaded base epoch), leaving the final
/// epoch's state. Verifies the final row count and digest recorded in the
/// delta; any mismatch — a final count the delta cannot reach, a patch
/// that does not fit, an anchor that does not exist, a digest difference
/// — is kInternal, never a silent divergence. SC records that do not
/// rebuild a table (ScTable::FromRecords) are kCorruption.
Status ApplyDelta(const DeltaSnapshot& delta, CatalogState* state);

}  // namespace primelabel

#endif  // PRIMELABEL_DURABILITY_DELTA_H_
