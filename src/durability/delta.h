#ifndef PRIMELABEL_DURABILITY_DELTA_H_
#define PRIMELABEL_DURABILITY_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sc_table.h"
#include "store/catalog.h"
#include "util/status.h"

namespace primelabel {

// Delta snapshots ("delta-<epoch>.pld").
//
// A checkpoint normally rewrites the whole catalog; for a large document
// mutated in a few places that is almost all unchanged bytes. A delta
// snapshot instead records, against a base epoch:
//
//   - tombstones: self-labels of removed base subtree roots,
//   - patches: full row images of every row that is new or whose content
//     (tag, attributes, label, self, parent) changed, in FINAL preorder,
//     each with its final parent's and preceding sibling's self-labels so
//     apply can place it structurally,
//   - changed SC records by index (the SC record vector is append-only:
//     records never move, so an index is a stable name).
//
// Format PLDELTA2 persists a patch row's fingerprint as its 16-byte image
// and an SC record as its moduli plus its SC value; the decoder derives
// each order as sc mod modulus. The read-only PLDELTA1 stored 72-byte
// fingerprint images (chunk residues in front) and an order beside every
// modulus; DecodeDelta still reads it.
//
// Change detection is diff-based, not WAL-event-based: the store keeps a
// hash index of the base epoch's rows (self -> row hash + parent self) and
// diffs the current rows against it at checkpoint time. An SC rewrite can
// relabel a whole subtree (ReplaceSelf), which makes event tracking
// error-prone; the diff sees exactly what changed regardless of why. The
// file carries the final row count and a digest of the final row set, and
// ApplyDelta verifies both — a wrong delta (or a hash collision in the
// diff) fails loudly with kInternal instead of diverging silently.
//
// Correctness of the placement pass rests on an ordering invariant of the
// labeling scheme: surviving nodes never reorder relative to each other
// (insertions add nodes, deletions remove subtrees, and SC relabels
// replace a node's identity — classified here as tombstone + new). So
// unpatched rows keep their base relative order, and placing patches in
// final preorder against (parent_self, pred_self) anchors reconstructs the
// final preorder exactly.

/// Hash of one row's persisted content. parent_self stands in for the
/// structural position (a parent change always accompanies a label change,
/// but hashing it keeps the detector honest about pure moves).
std::uint64_t CatalogRowHash(const CatalogRow& row, std::uint64_t parent_self);

/// Order-sensitive digest of a full row set (parents resolved through the
/// row indices). This is the value a delta file pins the final state to.
std::uint64_t CatalogRowsDigest(const std::vector<CatalogRow>& rows);

/// Hash of one SC record's moduli and SC value. The value and the orders
/// determine each other (order = sc mod modulus, sc the least solution),
/// so it changes exactly when the (modulus, order) pairs do.
std::uint64_t ScRecordHash(const ScRecord& record);

/// Base-epoch row index used for diffing: self-label -> content hash +
/// parent self-label.
struct BaseRowEntry {
  std::uint64_t hash = 0;
  std::uint64_t parent_self = 0;
};
using BaseRowIndex = std::unordered_map<std::uint64_t, BaseRowEntry>;

BaseRowIndex BuildBaseRowIndex(const std::vector<CatalogRow>& rows);
std::vector<std::uint64_t> ScRecordHashes(const ScTable& sc_table);

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
  /// Patch rows carry adoptable fingerprints. BuildDelta always sets it;
  /// files with the flag clear still decode and apply.
  bool fingerprints = false;
  std::vector<std::uint64_t> tombstones;
  std::vector<DeltaPatch> patches;  ///< in final preorder
  int sc_group_size = 0;
  std::uint64_t sc_final_record_count = 0;
  std::vector<std::pair<std::uint64_t, ScRecord>> sc_changes;
};

/// Diffs the final state against the base epoch's hash index and builds
/// the delta description. `final_rows` must carry valid fingerprints (live
/// rows always do); the patches persist them.
DeltaSnapshot BuildDelta(std::uint64_t base_epoch,
                         const BaseRowIndex& base_index,
                         const std::vector<std::uint64_t>& base_sc_hashes,
                         const std::vector<CatalogRow>& final_rows,
                         const ScTable& final_sc);

/// Serializes a delta ("PLDELTA2" + body + trailing CRC-32 of everything
/// before it).
std::vector<std::uint8_t> EncodeDelta(const DeltaSnapshot& delta);

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
