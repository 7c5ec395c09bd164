#include "core/ordered_prime_scheme.h"

#include <unordered_map>

#include "core/batch_kernels.h"
#include "util/status.h"

namespace primelabel {

OrderedPrimeScheme::OrderedPrimeScheme(int sc_group_size)
    : sc_table_(sc_group_size) {}

std::string_view OrderedPrimeScheme::name() const { return "prime-ordered"; }

void OrderedPrimeScheme::LabelTree(const XmlTree& tree) {
  set_tree(tree);
  structure_.LabelTree(tree);
  // Document order: the k-th non-root node in preorder has order number k.
  std::vector<std::uint64_t> selves;
  selves.reserve(tree.node_count());
  tree.Preorder([&](NodeId id, int depth) {
    if (depth > 0) selves.push_back(structure_.self_label(id));
  });
  sc_table_.Build(selves);
}

Status OrderedPrimeScheme::Adopt(const XmlTree& tree,
                                 std::vector<BigInt> labels,
                                 std::vector<std::uint64_t> selves,
                                 ScTable sc_table,
                                 std::vector<LabelFingerprint> fps) {
  set_tree(tree);
  Status adopted = structure_.Adopt(tree, std::move(labels), std::move(selves),
                                    std::move(fps));
  if (!adopted.ok()) return adopted;
  sc_table_ = std::move(sc_table);
  return Status::Ok();
}

bool OrderedPrimeScheme::IsAncestor(NodeId ancestor, NodeId descendant) const {
  return structure_.IsAncestor(ancestor, descendant);
}

bool OrderedPrimeScheme::IsParent(NodeId parent, NodeId child) const {
  return structure_.IsParent(parent, child);
}

int OrderedPrimeScheme::LabelBits(NodeId id) const {
  return structure_.LabelBits(id);
}

std::string OrderedPrimeScheme::LabelString(NodeId id) const {
  return structure_.LabelString(id) + " order=" +
         std::to_string(OrderOf(id));
}

std::uint64_t OrderedPrimeScheme::OrderOf(NodeId id) const {
  if (id == tree()->root()) return 0;
  return sc_table_.OrderOf(structure_.self_label(id));
}

namespace {

/// The structural scheme's labels as a column for the shared batch
/// kernels (core/batch_kernels.h): BigInt magnitudes viewed as limb spans.
struct SchemeLabelColumn {
  const PrimeTopDownScheme& structure;
  LimbSpan label(NodeId id) const { return structure.label(id).Magnitude(); }
  const LabelFingerprint& fingerprint(NodeId id) const {
    return structure.fingerprint(id);
  }
};

}  // namespace

void OrderedPrimeScheme::IsAncestorBatch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    std::vector<std::uint8_t>* results) const {
  IsAncestorBatchKernel(SchemeLabelColumn{structure_}, pairs, results);
}

void OrderedPrimeScheme::SelectDescendants(NodeId ancestor,
                                           std::span<const NodeId> candidates,
                                           std::vector<NodeId>* out) const {
  SelectKernel<Relation::kDescendant>(SchemeLabelColumn{structure_}, ancestor,
                                      candidates, out);
}

void OrderedPrimeScheme::SelectAncestors(NodeId descendant,
                                         std::span<const NodeId> candidates,
                                         std::vector<NodeId>* out) const {
  SelectKernel<Relation::kAncestor>(SchemeLabelColumn{structure_}, descendant,
                                    candidates, out);
}

ScUpdateStats OrderedPrimeScheme::RegisterOrder(NodeId new_node) {
  // The node slots in right after its document-order predecessor:
  // position = order(predecessor) + 1, and followers shift up by one.
  // (Deriving the position from the predecessor's *order number* rather
  // than a preorder count keeps insertion correct after deletions, which
  // leave gaps in the order sequence.)
  PL_CHECK(!tree()->IsDetached(new_node));
  NodeId predecessor = tree()->PreorderPredecessor(new_node);
  PL_CHECK(predecessor != kInvalidNodeId);  // the root precedes everything
  std::uint64_t position = OrderOf(predecessor) + 1;

  int structural_relabels = 0;
  auto relabel = [&](std::uint64_t old_self) -> std::uint64_t {
    // Map the stale self-label back to its node, then hand out a fresh
    // prime through the structural scheme (which relabels the subtree).
    NodeId victim = kInvalidNodeId;
    tree()->Preorder([&](NodeId id, int depth) {
      if (depth > 0 && victim == kInvalidNodeId &&
          structure_.self_label(id) == old_self) {
        victim = id;
      }
    });
    PL_CHECK(victim != kInvalidNodeId);
    return structure_.ReplaceSelf(victim, &structural_relabels);
  };

  ScUpdateStats stats =
      sc_table_.InsertAt(structure_.self_label(new_node), position, relabel);
  stats.nodes_relabeled += structural_relabels;
  return stats;
}

int OrderedPrimeScheme::HandleDelete(NodeId node) {
  PL_CHECK(tree() != nullptr);
  // The subtree is detached but its arena slots (and self-labels) remain
  // readable; drop every congruence it contributed.
  tree()->PreorderFrom(node, 0, [&](NodeId id, int) {
    sc_table_.Remove(structure_.self_label(id));
  });
  return 0;
}

int OrderedPrimeScheme::HandleInsert(NodeId new_node, InsertOrder) {
  PL_CHECK(tree() != nullptr);
  int count = structure_.HandleInsert(new_node, InsertOrder::kUnordered);
  ScUpdateStats stats = RegisterOrder(new_node);
  last_sc_stats_ = stats;
  // Paper accounting (Section 5.4): each SC record update counts as one
  // relabeled node, plus any nodes whose self-label had to be replaced.
  return count + stats.records_updated + stats.nodes_relabeled;
}

}  // namespace primelabel
