#ifndef PRIMELABEL_LABELING_PRIME_TOP_DOWN_H_
#define PRIMELABEL_LABELING_PRIME_TOP_DOWN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/reduction.h"
#include "labeling/scheme.h"
#include "primes/prime_source.h"
#include "util/status.h"

namespace primelabel {

/// The basic top-down prime number labeling scheme (Section 3, Figure 2).
///
/// The root's label is 1. Every other node receives a fresh prime as its
/// *self-label* and the full label is parent_label * self_label, so a
/// node's label is the product of the unique primes along its root path.
/// Because every prime is used at most once, divisibility decides ancestry:
///
///   x is an ancestor of y  <=>  label(y) mod label(x) == 0   (x != y)
///
/// Insertion assigns the next unused prime — no existing node is ever
/// relabeled (the dynamic property motivating the scheme), except that
/// wrapping a subtree with a new parent multiplies a new prime into every
/// descendant's inherited product (Figure 17 counts exactly those).
class PrimeTopDownScheme : public LabelingScheme {
 public:
  PrimeTopDownScheme() = default;

  std::string_view name() const override;
  void LabelTree(const XmlTree& tree) override;
  bool IsAncestor(NodeId ancestor, NodeId descendant) const override;
  bool IsParent(NodeId parent, NodeId child) const override;
  int LabelBits(NodeId id) const override;
  std::string LabelString(NodeId id) const override;
  int HandleInsert(NodeId new_node, InsertOrder order) override;

  /// Adopts persisted labels instead of computing fresh ones: installs the
  /// given per-node labels and self-labels (indexed by NodeId) and
  /// fast-forwards the prime cursor past every adopted prime, so the next
  /// insertion draws a prime no existing label contains. This is the
  /// restart path the paper's dynamic property promises: reloading a
  /// document never relabels it.
  ///
  /// `fps`: persisted fingerprints indexed by NodeId (catalog format v3).
  /// When it has one entry per label slot they are installed as-is and the
  /// recompute pass is skipped entirely; an empty vector (v2 catalogs, or
  /// a fingerprint-config hash mismatch) derives them from the labels.
  ///
  /// Returns kCorruption, naming the node, when a non-root self-label is
  /// not a prime of the stream or repeats another node's: either would
  /// break the unique-prime invariant divisibility rests on. A self-label
  /// at or past the stream's bound is rejected in O(1), before the prime
  /// table grows. The scheme is unusable after a failed Adopt.
  Status Adopt(const XmlTree& tree, std::vector<BigInt> labels,
               std::vector<std::uint64_t> selves,
               std::vector<LabelFingerprint> fps = {});

  /// Replaces the self-label of an already-labeled node with a fresh prime
  /// and rederives the labels of its subtree. Used by OrderedPrimeScheme
  /// when a node's global order number outgrows its self-label (order must
  /// stay below the modulus for `sc mod self` to recover it). Returns the
  /// new prime and adds the number of nodes whose labels changed to
  /// `*relabeled`.
  std::uint64_t ReplaceSelf(NodeId id, int* relabeled);

  /// Position of the prime cursor: the stream index of the next fresh
  /// prime an insertion would draw. Every label this scheme will ever
  /// assign is a deterministic function of the tree shape and this cursor,
  /// which is what the durability journal exploits: each insert record
  /// carries the cursor at apply time, so replay re-derives bit-identical
  /// labels (including any SC-driven relabels) instead of persisting them.
  std::size_t prime_cursor() const { return primes_.cursor(); }
  /// Rewinds or advances the cursor to exactly `cursor` (journal replay).
  void set_prime_cursor(std::size_t cursor) {
    primes_.Reset();
    primes_.SkipFirst(cursor);
  }

  /// The full label (product of root-path self-labels).
  const BigInt& label(NodeId id) const {
    return labels_[static_cast<size_t>(id)];
  }
  /// The node's own prime (1 for the root).
  std::uint64_t self_label(NodeId id) const {
    return selves_[static_cast<size_t>(id)];
  }
  /// Divisibility fingerprint of the label, maintained alongside it at
  /// every write site (incrementally from the parent's fingerprint, so
  /// labeling stays O(chunks) extra per node). Batched queries consult it
  /// to reject non-ancestor pairs without touching BigInt limbs.
  const LabelFingerprint& fingerprint(NodeId id) const {
    return fps_[static_cast<size_t>(id)];
  }

 private:
  /// Recomputes labels of `node`'s descendants from their self-labels after
  /// `node`'s own label changed; returns nodes touched.
  int RelabelSubtree(NodeId node);
  void EnsureCapacity();

  /// Writes self/label/fingerprint for a non-root node from its parent's
  /// row — the single label-write path labeling, insertion and relabeling
  /// share.
  void WriteChildLabel(NodeId id, NodeId parent, std::uint64_t p);
  void WriteRootLabel(NodeId id);

  PrimeSource primes_;
  std::vector<BigInt> labels_;
  std::vector<std::uint64_t> selves_;
  std::vector<LabelFingerprint> fps_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_LABELING_PRIME_TOP_DOWN_H_
