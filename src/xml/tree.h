#ifndef PRIMELABEL_XML_TREE_H_
#define PRIMELABEL_XML_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace primelabel {

/// Identifier of a node within one XmlTree. Ids are dense indexes into the
/// tree's arena; they are stable for the lifetime of the tree (nodes are
/// never physically removed, only detached).
using NodeId = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNodeId = -1;

/// Kind of a tree node. Attribute values live on their element, not as
/// separate nodes, matching how the paper's labeling experiments count nodes.
enum class XmlNodeType : std::uint8_t {
  kElement,
  kText,
};

/// One node of an ordered XML tree. Passive data carrier: all structure
/// invariants are maintained by XmlTree.
struct XmlNode {
  XmlNodeType type = XmlNodeType::kElement;
  /// Element tag name, or character data for text nodes.
  std::string name;
  NodeId parent = kInvalidNodeId;
  NodeId first_child = kInvalidNodeId;
  NodeId last_child = kInvalidNodeId;
  NodeId next_sibling = kInvalidNodeId;
  NodeId prev_sibling = kInvalidNodeId;
  /// Attributes in document order (elements only).
  std::vector<std::pair<std::string, std::string>> attributes;
  /// True once the node has been detached from the tree.
  bool detached = false;
};

/// Ordered XML tree backed by an arena.
///
/// This is the substrate every labeling scheme operates on: an ordered tree
/// with stable node ids, supporting the three update operations the paper's
/// experiments exercise — appending/inserting siblings (leaf updates,
/// Fig 16/18), and wrapping an existing node with a new parent (non-leaf
/// updates, Fig 17).
class XmlTree {
 public:
  XmlTree() = default;

  XmlTree(const XmlTree&) = default;
  XmlTree& operator=(const XmlTree&) = default;
  XmlTree(XmlTree&&) = default;
  XmlTree& operator=(XmlTree&&) = default;

  /// Creates the root element. Must be called exactly once, first.
  NodeId CreateRoot(std::string_view tag);

  /// Appends a new element as the last child of `parent`.
  NodeId AppendChild(NodeId parent, std::string_view tag);

  /// Appends a new text node as the last child of `parent`.
  NodeId AppendText(NodeId parent, std::string_view text);

  /// Inserts a new element immediately before `sibling` under the same
  /// parent. `sibling` must not be the root.
  NodeId InsertBefore(NodeId sibling, std::string_view tag);

  /// Inserts a new element immediately after `sibling` under the same
  /// parent. `sibling` must not be the root.
  NodeId InsertAfter(NodeId sibling, std::string_view tag);

  /// Inserts a new element between `node` and its parent: the new element
  /// takes `node`'s sibling position and `node` becomes its only child.
  /// `node` must not be the root. Returns the new parent.
  NodeId WrapNode(NodeId node, std::string_view tag);

  /// Detaches `node` (and implicitly its subtree) from the tree. The arena
  /// slots remain allocated; `IsDetached` reports true for the subtree root.
  void Detach(NodeId node);

  /// Adds an attribute to an element node.
  void AddAttribute(NodeId element, std::string_view key,
                    std::string_view value);

  // --- Accessors --------------------------------------------------------

  NodeId root() const { return root_; }
  /// Total arena slots, including detached nodes.
  std::size_t arena_size() const { return nodes_.size(); }
  /// Number of attached nodes.
  std::size_t node_count() const { return attached_count_; }

  const XmlNode& node(NodeId id) const;
  bool IsDetached(NodeId id) const { return node(id).detached; }

  NodeId parent(NodeId id) const { return node(id).parent; }
  NodeId first_child(NodeId id) const { return node(id).first_child; }
  NodeId next_sibling(NodeId id) const { return node(id).next_sibling; }
  const std::string& name(NodeId id) const { return node(id).name; }
  XmlNodeType type(NodeId id) const { return node(id).type; }
  bool IsElement(NodeId id) const {
    return node(id).type == XmlNodeType::kElement;
  }
  bool IsLeaf(NodeId id) const {
    return node(id).first_child == kInvalidNodeId;
  }

  /// Children of `id` in document order.
  std::vector<NodeId> Children(NodeId id) const;
  /// Number of children of `id`.
  int ChildCount(NodeId id) const;
  /// 1-based position of `id` among its siblings.
  int SiblingPosition(NodeId id) const;

  /// Depth of `id`: the root has depth 0.
  int Depth(NodeId id) const;

  /// True iff `ancestor` is a proper ancestor of `descendant` (structural
  /// ground truth used to validate the labeling schemes).
  bool IsAncestor(NodeId ancestor, NodeId descendant) const;

  /// All attached nodes in document (preorder) order.
  std::vector<NodeId> PreorderNodes() const;
  /// Each arena slot's preorder rank (kInvalidNodeId for detached slots):
  /// the inverse of PreorderNodes, and the ids a snapshot of this tree's
  /// state hands out.
  std::vector<NodeId> PreorderRanks() const;

  /// The attached node right before `id` in document order, read off the
  /// links in O(depth): the previous sibling's deepest last descendant, or
  /// else the parent (kInvalidNodeId for the root).
  NodeId PreorderPredecessor(NodeId id) const;

  /// Preorder visit; `visit(id, depth)` is called for each attached node.
  template <typename Visitor>
  void Preorder(Visitor&& visit) const {
    if (root_ == kInvalidNodeId) return;
    PreorderFrom(root_, 0, visit);
  }

  /// Preorder visit of the subtree rooted at `start`.
  template <typename Visitor>
  void PreorderFrom(NodeId start, int depth, Visitor&& visit) const {
    visit(start, depth);
    for (NodeId child = node(start).first_child; child != kInvalidNodeId;
         child = node(child).next_sibling) {
      PreorderFrom(child, depth + 1, visit);
    }
  }

  /// First attached node with the given element tag in document order, or
  /// kInvalidNodeId.
  NodeId FindFirst(std::string_view tag) const;

  /// All attached element nodes with the given tag, in document order.
  std::vector<NodeId> FindAll(std::string_view tag) const;

 private:
  NodeId NewNode(XmlNodeType type, std::string_view name);
  void LinkAsLastChild(NodeId parent, NodeId child);

  std::vector<XmlNode> nodes_;
  NodeId root_ = kInvalidNodeId;
  std::size_t attached_count_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_XML_TREE_H_
