#ifndef PRIMELABEL_LABELING_PRIME_OPTIMIZED_H_
#define PRIMELABEL_LABELING_PRIME_OPTIMIZED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "labeling/scheme.h"
#include "primes/prime_source.h"

namespace primelabel {

/// Configuration of the optimized scheme (Section 3.2 / Figure 7).
struct PrimeOptimizedOptions {
  /// Opt1: number of small primes reserved for top-level nodes (the root's
  /// non-leaf children). 0 disables the optimization.
  int reserved_primes = 16;
  /// Opt2: label leaf siblings with powers of two. Disabled => every node
  /// gets a prime self-label (the original top-down scheme).
  bool power_of_two_leaves = true;
  /// Opt2 threshold: once a leaf's 2^n self-label would exceed this many
  /// bits, remaining siblings fall back to primes ("we can use other prime
  /// numbers instead of powers of 2 to label the remaining siblings").
  /// 16 keeps power-of-two selves no larger than the primes a mid-sized
  /// document would hand out, so huge fan-outs (the Actor dataset) do not
  /// regress past the unoptimized scheme.
  int max_leaf_exponent = 16;
};

/// The optimized top-down prime number labeling scheme — the "Prime" line
/// of the paper's experiments.
///
/// Two optimizations over PrimeTopDownScheme (Figure 7's PrimeLabel
/// algorithm): (Opt1) top-level nodes take self-labels from a reserved pool
/// of the smallest primes, so the labels inherited by most of the document
/// stay small; (Opt2) the n-th leaf child of a node takes self-label 2^n —
/// even numbers are otherwise unused since 2 is the only even prime — which
/// recycles the cheapest self-labels for the most common node kind.
///
/// Because leaf labels are even, the ancestor test becomes Property 3:
///
///   x ancestor of y  <=>  odd(label(x)) and label(y) mod label(x) == 0
///
/// (with the Opt2-threshold fallback, a leaf may carry an odd prime
/// self-label; divisibility alone still never misclassifies it because its
/// prime divides no other label.)
class PrimeOptimizedScheme : public LabelingScheme {
 public:
  explicit PrimeOptimizedScheme(PrimeOptimizedOptions options = {});

  std::string_view name() const override;
  void LabelTree(const XmlTree& tree) override;
  bool IsAncestor(NodeId ancestor, NodeId descendant) const override;
  bool IsParent(NodeId parent, NodeId child) const override;
  int LabelBits(NodeId id) const override;
  std::string LabelString(NodeId id) const override;
  int HandleInsert(NodeId new_node, InsertOrder order) override;

  /// The full label: product of the root-path self-labels.
  const BigInt& label(NodeId id) const {
    return labels_[static_cast<size_t>(id)];
  }
  /// The node's own self-label (prime, or 2^n for Opt2 leaves; 1 for root).
  const BigInt& self_label(NodeId id) const {
    return selves_[static_cast<size_t>(id)];
  }

 private:
  /// Assigns `node` its self-label per the PrimeLabel algorithm and derives
  /// the full label from the parent.
  void AssignLabel(NodeId node, int depth);
  int RelabelSubtree(NodeId node);
  void EnsureCapacity();
  std::uint64_t NextGeneralPrime();
  std::uint64_t NextReservedPrime();

  PrimeOptimizedOptions options_;
  PrimeSource primes_;
  std::vector<BigInt> labels_;
  std::vector<BigInt> selves_;
  /// Next power-of-two exponent per parent (Opt2's childNum counter).
  std::vector<int> next_leaf_exponent_;
  /// Cursor into the reserved pool (primes_[0 .. reserved_primes)).
  int reserved_used_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_LABELING_PRIME_OPTIMIZED_H_
