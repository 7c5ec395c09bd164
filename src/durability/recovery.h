#ifndef PRIMELABEL_DURABILITY_RECOVERY_H_
#define PRIMELABEL_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "corpus/labeled_document.h"
#include "durability/frame.h"
#include "util/status.h"

namespace primelabel {

/// What a recovery pass did and what it had to drop.
struct RecoveryStats {
  /// Journal records applied (inserts + deletes; kScRewrite records are
  /// verification-only and counted separately).
  std::uint64_t inserts_applied = 0;
  std::uint64_t deletes_applied = 0;
  /// SC-rewrite verification records checked against the replayed state.
  std::uint64_t sc_checks = 0;
  /// Intact journal prefix in bytes (header included): where the journal
  /// must be truncated to before further appends.
  std::uint64_t journal_valid_bytes = 0;
  /// True when a torn tail or corrupt frame cut the journal short.
  bool tail_truncated = false;
  std::uint64_t bytes_dropped = 0;
};

/// Runs the LabeledDocument insert that `op` journals, anchored at
/// `anchor`, and returns the new node: the one mapping from op to call,
/// shared by the live store and replay.
NodeId ApplyInsert(WalRecord::Op op, NodeId anchor, std::string_view tag,
                   LabeledDocument* doc);

/// Replays decoded journal records on top of `doc` (normally a document
/// just restored from a snapshot).
///
/// Inserts pin the prime cursor to the recorded value before re-applying
/// the mutation, so every derived label — the new node's, a wrap's
/// relabeled subtree, and any SC-driven replacement self-labels — comes
/// out bit-identical to the live run. Each insert's resulting self-label
/// and each kScRewrite record's accounting are checked against what the
/// replay actually produced; any divergence fails with kInternal (a
/// checksummed-but-wrong journal, i.e. real corruption or an engine
/// regression — not something to paper over). A recorded cursor with no
/// room after it in the prime stream fails with kCorruption before the
/// cursor is pinned (LabeledDocument::CheckInsertRoom).
Status ReplayRecords(std::span<const WalRecord> records, LabeledDocument* doc,
                     RecoveryStats* stats = nullptr);

}  // namespace primelabel

#endif  // PRIMELABEL_DURABILITY_RECOVERY_H_
