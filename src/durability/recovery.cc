#include "durability/recovery.h"

#include <unordered_map>
#include <utility>
#include <vector>


namespace primelabel {

namespace {

/// Self-label -> NodeId index over a replaying document. Journal records
/// name nodes by self-label (stable across save/load); the index resolves
/// them against the current tree and tolerates staleness — SC rewrites
/// replace self-labels of existing nodes — by verifying every hit and
/// rebuilding on a miss.
class SelfIndex {
 public:
  explicit SelfIndex(const LabeledDocument* doc) : doc_(doc) {}

  NodeId Find(std::uint64_t self) {
    auto it = map_.find(self);
    if (it != map_.end() && Matches(it->second, self)) return it->second;
    Rebuild();
    it = map_.find(self);
    return it == map_.end() ? kInvalidNodeId : it->second;
  }

  void Add(std::uint64_t self, NodeId id) { map_[self] = id; }
  void Invalidate() { map_.clear(); }

 private:
  bool Matches(NodeId id, std::uint64_t self) const {
    return !doc_->tree().IsDetached(id) &&
           doc_->scheme().structure().self_label(id) == self;
  }

  void Rebuild() {
    map_.clear();
    const auto& structure = doc_->scheme().structure();
    doc_->tree().Preorder([&](NodeId id, int) {
      map_[structure.self_label(id)] = id;
    });
  }

  const LabeledDocument* doc_;
  std::unordered_map<std::uint64_t, NodeId> map_;
};

Status Diverged(const std::string& what) {
  return Status::Internal("journal replay diverged: " + what);
}

}  // namespace

NodeId ApplyInsert(WalRecord::Op op, NodeId anchor, std::string_view tag,
                   LabeledDocument* doc) {
  switch (op) {
    case WalRecord::Op::kInsertBefore:
      return doc->InsertBefore(anchor, tag);
    case WalRecord::Op::kInsertAfter:
      return doc->InsertAfter(anchor, tag);
    case WalRecord::Op::kAppendChild:
      return doc->AppendChild(anchor, tag);
    case WalRecord::Op::kWrap:
      return doc->Wrap(anchor, tag);
  }
  return kInvalidNodeId;
}

Status ReplayRecords(std::span<const WalRecord> records, LabeledDocument* doc,
                     RecoveryStats* stats) {
  SelfIndex index(doc);
  std::uint64_t last_inserted_self = 0;
  for (const WalRecord& record : records) {
    switch (record.type) {
      case WalRecord::Type::kInsert: {
        NodeId anchor = index.Find(record.anchor_self);
        if (anchor == kInvalidNodeId) {
          return Diverged("insert anchor self-label " +
                          std::to_string(record.anchor_self) +
                          " not found in replayed tree");
        }
        // The writer checked the same room at the same state before it
        // journaled the insert, so only a corrupt frame fails here, in
        // O(1) and before the prime table grows towards its cursor.
        Status room = doc->CheckInsertRoom(record.prime_cursor);
        if (!room.ok()) {
          return Status::Corruption("journal insert's prime cursor " +
                                    std::to_string(record.prime_cursor) +
                                    ": " + room.message());
        }
        // Pin the prime cursor: from here the engine's determinism takes
        // over and re-derives the live run's labels bit for bit.
        doc->set_prime_cursor(record.prime_cursor);
        NodeId fresh = ApplyInsert(record.op, anchor, record.tag, doc);
        std::uint64_t got = doc->scheme().structure().self_label(fresh);
        if (got != record.new_self) {
          return Diverged("insert produced self-label " +
                          std::to_string(got) + ", journal recorded " +
                          std::to_string(record.new_self));
        }
        if (doc->last_sc_stats().nodes_relabeled > 0) {
          // The SC insert handed replacement self-labels to other nodes;
          // every cached mapping is suspect.
          index.Invalidate();
        }
        index.Add(got, fresh);
        last_inserted_self = got;
        if (stats != nullptr) ++stats->inserts_applied;
        break;
      }
      case WalRecord::Type::kDelete: {
        NodeId target = index.Find(record.anchor_self);
        if (target == kInvalidNodeId) {
          return Diverged("delete target self-label " +
                          std::to_string(record.anchor_self) +
                          " not found in replayed tree");
        }
        if (target == doc->tree().root()) {
          return Diverged("journal deletes the root");
        }
        doc->Delete(target);
        index.Invalidate();  // the whole subtree went away
        if (stats != nullptr) ++stats->deletes_applied;
        break;
      }
      case WalRecord::Type::kScRewrite: {
        // Pure verification: the live run logged what its SC insert did;
        // the replayed insert must have done exactly the same.
        const ScUpdateStats& sc = doc->last_sc_stats();
        if (record.anchor_self != last_inserted_self) {
          return Diverged("SC-rewrite record follows self-label " +
                          std::to_string(record.anchor_self) +
                          " but the last replayed insert produced " +
                          std::to_string(last_inserted_self));
        }
        if (static_cast<std::uint32_t>(sc.records_updated) !=
                record.sc_records_updated ||
            static_cast<std::uint32_t>(sc.nodes_relabeled) !=
                record.sc_nodes_relabeled ||
            doc->scheme().sc_table().max_order() != record.sc_max_order) {
          return Diverged(
              "SC rewrite accounting mismatch (live " +
              std::to_string(record.sc_records_updated) + "/" +
              std::to_string(record.sc_nodes_relabeled) + "/" +
              std::to_string(record.sc_max_order) + ", replay " +
              std::to_string(sc.records_updated) + "/" +
              std::to_string(sc.nodes_relabeled) + "/" +
              std::to_string(doc->scheme().sc_table().max_order()) + ")");
        }
        if (stats != nullptr) ++stats->sc_checks;
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace primelabel
