#include "labeling/prime_top_down.h"

#include <algorithm>
#include <string>

#include "util/status.h"

namespace primelabel {

std::string_view PrimeTopDownScheme::name() const { return "prime-topdown"; }

void PrimeTopDownScheme::EnsureCapacity() {
  std::size_t need = tree()->arena_size();
  if (labels_.size() < need) {
    labels_.resize(need);
    selves_.resize(need, 0);
    fps_.resize(need);
  }
}

void PrimeTopDownScheme::WriteRootLabel(NodeId id) {
  auto i = static_cast<std::size_t>(id);
  selves_[i] = 1;
  labels_[i] = BigInt(1);
  fps_[i] = FingerprintOf(labels_[i]);
}

void PrimeTopDownScheme::WriteChildLabel(NodeId id, NodeId parent,
                                         std::uint64_t p) {
  auto i = static_cast<std::size_t>(id);
  auto pi = static_cast<std::size_t>(parent);
  selves_[i] = p;
  labels_[i] = labels_[pi] * BigInt::FromUint64(p);
  fps_[i] = ExtendFingerprintByPrime(fps_[pi], p, labels_[i]);
}

void PrimeTopDownScheme::LabelTree(const XmlTree& tree) {
  set_tree(tree);
  primes_.Reset();
  labels_.assign(tree.arena_size(), BigInt());
  selves_.assign(tree.arena_size(), 0);
  fps_.assign(tree.arena_size(), LabelFingerprint());
  tree.Preorder([&](NodeId id, int depth) {
    if (depth == 0) {
      WriteRootLabel(id);
    } else {
      WriteChildLabel(id, tree.parent(id), primes_.Next());
    }
  });
}

Status PrimeTopDownScheme::Adopt(const XmlTree& tree,
                                 std::vector<BigInt> labels,
                                 std::vector<std::uint64_t> selves,
                                 std::vector<LabelFingerprint> fps) {
  PL_CHECK(labels.size() >= tree.arena_size());
  PL_CHECK(selves.size() == labels.size());
  PL_CHECK(fps.empty() || fps.size() == labels.size());
  set_tree(tree);
  labels_ = std::move(labels);
  selves_ = std::move(selves);
  const bool adopt_fps = !fps.empty();
  if (adopt_fps) {
    // Persisted fingerprints (catalog v3, config hash verified by the
    // loader): install as-is, no recompute pass.
    fps_ = std::move(fps);
  } else {
    // Labels arrived without fingerprints; derive them from scratch with
    // the batched kernel over the whole contiguous arena, then reset any
    // detached slots so they keep the default (empty) fingerprint the
    // per-node path would have left.
    fps_.assign(labels_.size(), LabelFingerprint());
  }
  primes_.Reset();
  std::vector<std::uint8_t> attached(labels_.size(), 0);
  // One bit per odd prime (and 2) a node has claimed, keyed (p - 1) / 2,
  // to catch repeats; every key is below kBound / 2 once CheckPrime passed.
  std::vector<bool> claimed;
  std::uint64_t largest = 0;
  Status status;
  tree.Preorder([&](NodeId id, int depth) {
    attached[static_cast<std::size_t>(id)] = 1;
    if (depth == 0 || !status.ok()) return;
    const std::uint64_t self = selves_[static_cast<std::size_t>(id)];
    auto corrupt = [&](const std::string& what) {
      status = Status::Corruption("self-label " + std::to_string(self) +
                                  " of node " + std::to_string(id) + " " +
                                  what);
    };
    // Bound first, in O(1): the table never grows past kBound to look.
    const Status prime = PrimeSource::CheckPrime(self);
    if (!prime.ok()) return corrupt(prime.message());
    const std::size_t key = static_cast<std::size_t>((self - 1) / 2);
    if (key >= claimed.size()) claimed.resize(key + 1);
    if (claimed[key]) return corrupt("repeats an earlier node's");
    claimed[key] = true;
    largest = std::max(largest, self);
  });
  if (!status.ok()) return status;
  if (!adopt_fps) FingerprintLabels(labels_, fps_);
  for (std::size_t i = 0; i < fps_.size(); ++i) {
    if (!attached[i]) fps_[i] = LabelFingerprint();
  }
  // The next fresh prime follows the largest adopted one.
  if (largest != 0) primes_.SkipFirst(*PrimeSource::IndexOf(largest) + 1);
  return Status::Ok();
}

bool PrimeTopDownScheme::IsAncestor(NodeId ancestor, NodeId descendant) const {
  if (ancestor == descendant) return false;
  // Fingerprint witnesses reject almost every non-ancestor pair without
  // touching BigInt limbs; survivors get the exact division.
  if (!FingerprintMayProperlyDivide(fingerprint(ancestor), fingerprint(descendant))) {
    return false;
  }
  return label(descendant).IsDivisibleBy(label(ancestor));
}

bool PrimeTopDownScheme::IsParent(NodeId parent, NodeId child) const {
  if (parent == child) return false;
  return IsProductOf(label(child).Magnitude(), label(parent).Magnitude(),
                     self_label(child));
}

int PrimeTopDownScheme::LabelBits(NodeId id) const {
  return label(id).BitLength();
}

std::string PrimeTopDownScheme::LabelString(NodeId id) const {
  return label(id).ToDecimalString() + " (self " +
         std::to_string(self_label(id)) + ")";
}

int PrimeTopDownScheme::RelabelSubtree(NodeId node) {
  int count = 0;
  for (NodeId c = tree()->first_child(node); c != kInvalidNodeId;
       c = tree()->next_sibling(c)) {
    WriteChildLabel(c, node, selves_[static_cast<size_t>(c)]);
    ++count;
    count += RelabelSubtree(c);
  }
  return count;
}

std::uint64_t PrimeTopDownScheme::ReplaceSelf(NodeId id, int* relabeled) {
  PL_CHECK(tree() != nullptr);
  NodeId parent = tree()->parent(id);
  PL_CHECK(parent != kInvalidNodeId);  // the root's self-label is fixed at 1
  std::uint64_t p = primes_.Next();
  WriteChildLabel(id, parent, p);
  *relabeled += 1 + RelabelSubtree(id);
  return p;
}

int PrimeTopDownScheme::HandleInsert(NodeId new_node, InsertOrder) {
  PL_CHECK(tree() != nullptr);
  EnsureCapacity();
  NodeId parent = tree()->parent(new_node);
  PL_CHECK(parent != kInvalidNodeId);
  WriteChildLabel(new_node, parent, primes_.Next());
  // WrapNode case: descendants inherit the new prime.
  return 1 + RelabelSubtree(new_node);
}

}  // namespace primelabel
