#include "xpath/oracle.h"

#include <algorithm>
#include <unordered_map>

#include "util/status.h"

namespace primelabel {

namespace {

bool NameMatches(const XmlTree& tree, NodeId id, const std::string& test) {
  return tree.IsElement(id) && (test == "*" || tree.name(id) == test);
}

std::vector<NodeId> ApplyPosition(const XmlTree& tree,
                                  const std::vector<NodeId>& nodes, int n) {
  std::unordered_map<NodeId, std::vector<NodeId>> groups;
  std::vector<NodeId> parents_in_order;
  for (NodeId node : nodes) {
    NodeId parent = tree.parent(node);
    if (groups[parent].empty()) parents_in_order.push_back(parent);
    groups[parent].push_back(node);
  }
  std::vector<NodeId> out;
  for (NodeId parent : parents_in_order) {
    const std::vector<NodeId>& members = groups[parent];
    if (members.size() >= static_cast<std::size_t>(n)) {
      out.push_back(members[static_cast<std::size_t>(n - 1)]);
    }
  }
  return out;
}

}  // namespace

std::vector<NodeId> EvaluateXPathOnTree(const XmlTree& tree,
                                        const XPathQuery& query) {
  PL_CHECK(!query.steps.empty());
  std::vector<NodeId> rank = tree.PreorderRanks();
  auto doc_less = [&rank](NodeId a, NodeId b) {
    return rank[static_cast<std::size_t>(a)] <
           rank[static_cast<std::size_t>(b)];
  };

  std::vector<NodeId> context;
  for (std::size_t s = 0; s < query.steps.size(); ++s) {
    const XPathStep& step = query.steps[s];
    std::vector<NodeId> result;
    auto add_if_matching = [&](NodeId id) {
      if (NameMatches(tree, id, step.name_test)) result.push_back(id);
    };

    if (s == 0 && step.axis == XPathAxis::kDescendant) {
      tree.Preorder([&](NodeId id, int) { add_if_matching(id); });
    } else {
      for (NodeId anchor : context) {
        switch (step.axis) {
          case XPathAxis::kChild:
            for (NodeId c = tree.first_child(anchor); c != kInvalidNodeId;
                 c = tree.next_sibling(c)) {
              add_if_matching(c);
            }
            break;
          case XPathAxis::kDescendant:
            tree.PreorderFrom(anchor, 0, [&](NodeId id, int depth) {
              if (depth > 0) add_if_matching(id);
            });
            break;
          case XPathAxis::kFollowing:
            tree.Preorder([&](NodeId id, int) {
              if (rank[static_cast<std::size_t>(id)] >
                      rank[static_cast<std::size_t>(anchor)] &&
                  !tree.IsAncestor(anchor, id)) {
                add_if_matching(id);
              }
            });
            break;
          case XPathAxis::kPreceding:
            tree.Preorder([&](NodeId id, int) {
              if (rank[static_cast<std::size_t>(id)] <
                      rank[static_cast<std::size_t>(anchor)] &&
                  !tree.IsAncestor(id, anchor)) {
                add_if_matching(id);
              }
            });
            break;
          case XPathAxis::kFollowingSibling:
            for (NodeId sibling = tree.next_sibling(anchor);
                 sibling != kInvalidNodeId;
                 sibling = tree.next_sibling(sibling)) {
              add_if_matching(sibling);
            }
            break;
          case XPathAxis::kPrecedingSibling: {
            NodeId parent = tree.parent(anchor);
            if (parent == kInvalidNodeId) break;
            for (NodeId sibling = tree.first_child(parent);
                 sibling != anchor && sibling != kInvalidNodeId;
                 sibling = tree.next_sibling(sibling)) {
              add_if_matching(sibling);
            }
            break;
          }
          case XPathAxis::kParent:
            if (tree.parent(anchor) != kInvalidNodeId) {
              add_if_matching(tree.parent(anchor));
            }
            break;
          case XPathAxis::kAncestor:
            for (NodeId up = tree.parent(anchor); up != kInvalidNodeId;
                 up = tree.parent(up)) {
              add_if_matching(up);
            }
            break;
        }
      }
    }
    std::sort(result.begin(), result.end(), doc_less);
    result.erase(std::unique(result.begin(), result.end()), result.end());
    if (step.attribute_equals.has_value()) {
      const auto& [key, value] = *step.attribute_equals;
      std::vector<NodeId> filtered;
      for (NodeId id : result) {
        for (const auto& [k, v] : tree.node(id).attributes) {
          if (k == key && v == value) {
            filtered.push_back(id);
            break;
          }
        }
      }
      result = std::move(filtered);
    }
    if (step.text_equals.has_value()) {
      std::vector<NodeId> filtered;
      for (NodeId id : result) {
        std::string text;
        for (NodeId c = tree.first_child(id); c != kInvalidNodeId;
             c = tree.next_sibling(c)) {
          if (!tree.IsElement(c)) text += tree.name(c);
        }
        if (text == *step.text_equals) filtered.push_back(id);
      }
      result = std::move(filtered);
    }
    if (step.position.has_value()) {
      result = ApplyPosition(tree, result, *step.position);
      // The per-parent selection visits parents by their first member;
      // restore document order across groups.
      std::sort(result.begin(), result.end(), doc_less);
    }
    context = std::move(result);
  }
  return context;
}

}  // namespace primelabel
