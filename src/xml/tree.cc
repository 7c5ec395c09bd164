#include "xml/tree.h"

namespace primelabel {

const XmlNode& XmlTree::node(NodeId id) const {
  PL_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

NodeId XmlTree::NewNode(XmlNodeType type, std::string_view name) {
  XmlNode n;
  n.type = type;
  n.name = std::string(name);
  nodes_.push_back(std::move(n));
  ++attached_count_;
  return static_cast<NodeId>(nodes_.size() - 1);
}

void XmlTree::LinkAsLastChild(NodeId parent, NodeId child) {
  XmlNode& p = nodes_[parent];
  XmlNode& c = nodes_[child];
  c.parent = parent;
  c.prev_sibling = p.last_child;
  if (p.last_child != kInvalidNodeId) {
    nodes_[p.last_child].next_sibling = child;
  } else {
    p.first_child = child;
  }
  p.last_child = child;
}

NodeId XmlTree::CreateRoot(std::string_view tag) {
  PL_CHECK(root_ == kInvalidNodeId);
  root_ = NewNode(XmlNodeType::kElement, tag);
  return root_;
}

NodeId XmlTree::AppendChild(NodeId parent, std::string_view tag) {
  PL_CHECK(parent >= 0 && !node(parent).detached);
  NodeId id = NewNode(XmlNodeType::kElement, tag);
  LinkAsLastChild(parent, id);
  return id;
}

NodeId XmlTree::AppendText(NodeId parent, std::string_view text) {
  PL_CHECK(parent >= 0 && !node(parent).detached);
  NodeId id = NewNode(XmlNodeType::kText, text);
  LinkAsLastChild(parent, id);
  return id;
}

NodeId XmlTree::InsertBefore(NodeId sibling, std::string_view tag) {
  PL_CHECK(sibling != root_);
  PL_CHECK(!node(sibling).detached);
  NodeId id = NewNode(XmlNodeType::kElement, tag);
  XmlNode& s = nodes_[sibling];
  XmlNode& n = nodes_[id];
  n.parent = s.parent;
  n.prev_sibling = s.prev_sibling;
  n.next_sibling = sibling;
  if (s.prev_sibling != kInvalidNodeId) {
    nodes_[s.prev_sibling].next_sibling = id;
  } else {
    nodes_[s.parent].first_child = id;
  }
  s.prev_sibling = id;
  return id;
}

NodeId XmlTree::InsertAfter(NodeId sibling, std::string_view tag) {
  PL_CHECK(sibling != root_);
  PL_CHECK(!node(sibling).detached);
  NodeId id = NewNode(XmlNodeType::kElement, tag);
  XmlNode& s = nodes_[sibling];
  XmlNode& n = nodes_[id];
  n.parent = s.parent;
  n.prev_sibling = sibling;
  n.next_sibling = s.next_sibling;
  if (s.next_sibling != kInvalidNodeId) {
    nodes_[s.next_sibling].prev_sibling = id;
  } else {
    nodes_[s.parent].last_child = id;
  }
  s.next_sibling = id;
  return id;
}

NodeId XmlTree::WrapNode(NodeId target, std::string_view tag) {
  PL_CHECK(target != root_);
  PL_CHECK(!node(target).detached);
  NodeId id = NewNode(XmlNodeType::kElement, tag);
  XmlNode& t = nodes_[target];
  XmlNode& w = nodes_[id];
  // The wrapper takes over the target's links...
  w.parent = t.parent;
  w.prev_sibling = t.prev_sibling;
  w.next_sibling = t.next_sibling;
  if (t.prev_sibling != kInvalidNodeId) {
    nodes_[t.prev_sibling].next_sibling = id;
  } else {
    nodes_[t.parent].first_child = id;
  }
  if (t.next_sibling != kInvalidNodeId) {
    nodes_[t.next_sibling].prev_sibling = id;
  } else {
    nodes_[t.parent].last_child = id;
  }
  // ...and the target becomes its only child.
  w.first_child = target;
  w.last_child = target;
  t.parent = id;
  t.prev_sibling = kInvalidNodeId;
  t.next_sibling = kInvalidNodeId;
  return id;
}

void XmlTree::Detach(NodeId id) {
  PL_CHECK(id != root_);
  XmlNode& n = nodes_[id];
  PL_CHECK(!n.detached);
  if (n.prev_sibling != kInvalidNodeId) {
    nodes_[n.prev_sibling].next_sibling = n.next_sibling;
  } else {
    nodes_[n.parent].first_child = n.next_sibling;
  }
  if (n.next_sibling != kInvalidNodeId) {
    nodes_[n.next_sibling].prev_sibling = n.prev_sibling;
  } else {
    nodes_[n.parent].last_child = n.prev_sibling;
  }
  // Mark the whole subtree detached so traversals and counts skip it.
  PreorderFrom(id, 0, [this](NodeId d, int) {
    nodes_[d].detached = true;
    --attached_count_;
  });
  n.parent = kInvalidNodeId;
  n.prev_sibling = kInvalidNodeId;
  n.next_sibling = kInvalidNodeId;
}

void XmlTree::AddAttribute(NodeId element, std::string_view key,
                           std::string_view value) {
  PL_CHECK(IsElement(element));
  nodes_[element].attributes.emplace_back(std::string(key),
                                          std::string(value));
}

std::vector<NodeId> XmlTree::Children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c = node(id).first_child; c != kInvalidNodeId;
       c = node(c).next_sibling) {
    out.push_back(c);
  }
  return out;
}

int XmlTree::ChildCount(NodeId id) const {
  int count = 0;
  for (NodeId c = node(id).first_child; c != kInvalidNodeId;
       c = node(c).next_sibling) {
    ++count;
  }
  return count;
}

int XmlTree::SiblingPosition(NodeId id) const {
  int pos = 1;
  for (NodeId s = node(id).prev_sibling; s != kInvalidNodeId;
       s = node(s).prev_sibling) {
    ++pos;
  }
  return pos;
}

int XmlTree::Depth(NodeId id) const {
  int depth = 0;
  for (NodeId p = node(id).parent; p != kInvalidNodeId; p = node(p).parent) {
    ++depth;
  }
  return depth;
}

bool XmlTree::IsAncestor(NodeId ancestor, NodeId descendant) const {
  for (NodeId p = node(descendant).parent; p != kInvalidNodeId;
       p = node(p).parent) {
    if (p == ancestor) return true;
  }
  return false;
}

std::vector<NodeId> XmlTree::PreorderNodes() const {
  std::vector<NodeId> out;
  out.reserve(attached_count_);
  Preorder([&out](NodeId id, int) { out.push_back(id); });
  return out;
}

std::vector<NodeId> XmlTree::PreorderRanks() const {
  std::vector<NodeId> rank(nodes_.size(), kInvalidNodeId);
  NodeId next = 0;
  Preorder([&](NodeId id, int) {
    rank[static_cast<std::size_t>(id)] = next++;
  });
  return rank;
}

NodeId XmlTree::PreorderPredecessor(NodeId id) const {
  NodeId before = node(id).prev_sibling;
  if (before == kInvalidNodeId) return node(id).parent;
  while (node(before).last_child != kInvalidNodeId) {
    before = node(before).last_child;
  }
  return before;
}

NodeId XmlTree::FindFirst(std::string_view tag) const {
  NodeId found = kInvalidNodeId;
  Preorder([&](NodeId id, int) {
    if (found == kInvalidNodeId && IsElement(id) && name(id) == tag) {
      found = id;
    }
  });
  return found;
}

std::vector<NodeId> XmlTree::FindAll(std::string_view tag) const {
  std::vector<NodeId> out;
  Preorder([&](NodeId id, int) {
    if (IsElement(id) && name(id) == tag) out.push_back(id);
  });
  return out;
}

}  // namespace primelabel
