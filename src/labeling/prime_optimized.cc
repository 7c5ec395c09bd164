#include "labeling/prime_optimized.h"

#include "util/status.h"

namespace primelabel {

PrimeOptimizedScheme::PrimeOptimizedScheme(PrimeOptimizedOptions options)
    : options_(options) {
  PL_CHECK(options_.reserved_primes >= 0);
  PL_CHECK(options_.max_leaf_exponent >= 1);
}

std::string_view PrimeOptimizedScheme::name() const { return "prime"; }

// Self-label pools. Prime 2 (index 0) is never used as a self-label: Opt2
// leaves own the even numbers, and Property 3's odd() test relies on every
// internal label being odd. The reserved pool (Opt1) is the next
// `reserved_primes` odd primes, indices [1, 1+reserved]; the general pool
// starts after it.
std::uint64_t PrimeOptimizedScheme::NextReservedPrime() {
  if (reserved_used_ < options_.reserved_primes) {
    return primes_.PrimeAt(static_cast<std::size_t>(1 + reserved_used_++));
  }
  // Reserved pool exhausted: fall through to the general pool.
  return NextGeneralPrime();
}

std::uint64_t PrimeOptimizedScheme::NextGeneralPrime() { return primes_.Next(); }

void PrimeOptimizedScheme::EnsureCapacity() {
  std::size_t need = tree()->arena_size();
  if (labels_.size() < need) {
    labels_.resize(need);
    selves_.resize(need);
    next_leaf_exponent_.resize(need, 0);
  }
}

void PrimeOptimizedScheme::AssignLabel(NodeId node, int depth) {
  auto index = static_cast<size_t>(node);
  if (depth == 0) {
    selves_[index] = BigInt(1);
    labels_[index] = BigInt(1);
    return;
  }
  NodeId parent = tree()->parent(node);
  BigInt self;
  if (!tree()->IsLeaf(node) || !options_.power_of_two_leaves) {
    // Non-leaf (or Opt2 disabled): a prime — reserved for top-level nodes.
    std::uint64_t p =
        depth == 1 ? NextReservedPrime() : NextGeneralPrime();
    self = BigInt::FromUint64(p);
  } else {
    int exponent = ++next_leaf_exponent_[static_cast<size_t>(parent)];
    if (exponent <= options_.max_leaf_exponent) {
      self = BigInt(1) << exponent;  // 2^childNum
    } else {
      // Threshold reached: remaining leaf siblings take primes instead.
      self = BigInt::FromUint64(NextGeneralPrime());
    }
  }
  selves_[index] = self;
  labels_[index] = labels_[static_cast<size_t>(parent)] * self;
}

void PrimeOptimizedScheme::LabelTree(const XmlTree& tree) {
  set_tree(tree);
  primes_.Reset();
  // Skip prime 2 plus the reserved pool; Next() then serves the general pool.
  primes_.SkipFirst(static_cast<std::size_t>(1 + options_.reserved_primes));
  reserved_used_ = 0;
  labels_.assign(tree.arena_size(), BigInt());
  selves_.assign(tree.arena_size(), BigInt());
  next_leaf_exponent_.assign(tree.arena_size(), 0);
  tree.Preorder([&](NodeId id, int depth) { AssignLabel(id, depth); });
}

bool PrimeOptimizedScheme::IsAncestor(NodeId ancestor,
                                      NodeId descendant) const {
  if (ancestor == descendant) return false;
  const BigInt& a = label(ancestor);
  // Property 3: even labels are Opt2 leaves, which cannot be ancestors.
  if (!a.IsOdd()) return false;
  return label(descendant).IsDivisibleBy(a) && a != label(descendant);
}

bool PrimeOptimizedScheme::IsParent(NodeId parent, NodeId child) const {
  if (parent == child) return false;
  return label(parent) * self_label(child) == label(child) &&
         label(parent) != label(child);
}

int PrimeOptimizedScheme::LabelBits(NodeId id) const {
  return label(id).BitLength();
}

std::string PrimeOptimizedScheme::LabelString(NodeId id) const {
  return label(id).ToDecimalString() + " (self " +
         self_label(id).ToDecimalString() + ")";
}

int PrimeOptimizedScheme::RelabelSubtree(NodeId node) {
  int count = 0;
  for (NodeId c = tree()->first_child(node); c != kInvalidNodeId;
       c = tree()->next_sibling(c)) {
    labels_[static_cast<size_t>(c)] =
        labels_[static_cast<size_t>(node)] * selves_[static_cast<size_t>(c)];
    ++count;
    count += RelabelSubtree(c);
  }
  return count;
}

int PrimeOptimizedScheme::HandleInsert(NodeId new_node, InsertOrder) {
  PL_CHECK(tree() != nullptr);
  EnsureCapacity();
  NodeId parent = tree()->parent(new_node);
  PL_CHECK(parent != kInvalidNodeId);
  auto parent_index = static_cast<size_t>(parent);
  int count = 0;

  // If the parent used to be an Opt2 leaf (even self-label), it is now an
  // internal node and must take a prime self-label — the "2 nodes
  // relabeled" the paper reports for leaf updates (Section 5.3).
  if (!selves_[parent_index].IsOdd()) {
    selves_[parent_index] = BigInt::FromUint64(NextGeneralPrime());
    NodeId grandparent = tree()->parent(parent);
    PL_CHECK(grandparent != kInvalidNodeId);  // the root is never a leaf
    labels_[parent_index] =
        labels_[static_cast<size_t>(grandparent)] * selves_[parent_index];
    next_leaf_exponent_[parent_index] = 0;
    ++count;
  }

  auto index = static_cast<size_t>(new_node);
  if (!tree()->IsLeaf(new_node) || !options_.power_of_two_leaves) {
    // Wrapped subtrees get a prime self-label (they are internal nodes).
    selves_[index] = BigInt::FromUint64(NextGeneralPrime());
  } else {
    int exponent = ++next_leaf_exponent_[parent_index];
    selves_[index] = exponent <= options_.max_leaf_exponent
                         ? (BigInt(1) << exponent)
                         : BigInt::FromUint64(NextGeneralPrime());
  }
  labels_[index] = labels_[parent_index] * selves_[index];
  ++count;
  // WrapNode case: descendants inherit the wrapper's new prime.
  count += RelabelSubtree(new_node);
  return count;
}

}  // namespace primelabel
