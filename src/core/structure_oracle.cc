#include "core/structure_oracle.h"

namespace primelabel {

void StructureOracle::IsAncestorBatch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    std::vector<std::uint8_t>* results) const {
  results->clear();
  results->reserve(pairs.size());
  for (const auto& [ancestor, descendant] : pairs) {
    results->push_back(IsAncestor(ancestor, descendant) ? 1 : 0);
  }
}

void StructureOracle::SelectDescendants(NodeId ancestor,
                                        std::span<const NodeId> candidates,
                                        std::vector<NodeId>* out) const {
  for (NodeId candidate : candidates) {
    if (IsAncestor(ancestor, candidate)) out->push_back(candidate);
  }
}

void StructureOracle::SelectAncestors(NodeId descendant,
                                      std::span<const NodeId> candidates,
                                      std::vector<NodeId>* out) const {
  for (NodeId candidate : candidates) {
    if (IsAncestor(candidate, descendant)) out->push_back(candidate);
  }
}

}  // namespace primelabel
