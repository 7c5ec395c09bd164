#ifndef PRIMELABEL_CORE_STRUCTURE_ORACLE_H_
#define PRIMELABEL_CORE_STRUCTURE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "labeling/scheme.h"
#include "xml/tree.h"

namespace primelabel {

/// Maps a node to its global document-order number. Interval plugs in its
/// start value, the ordered prime scheme its SC-table lookup, prefix a
/// lexicographic rank.
using OrderFn = std::function<std::uint64_t(NodeId)>;

/// Label-only structural query interface — what the query pipeline (XPath
/// evaluator, store/plan join kernels) is allowed to know about a labeled
/// document.
///
/// The paper's premise is that structure and order queries are decidable
/// from labels alone (divisibility for ancestry, `sc mod self` for order),
/// with no tree in memory. This interface pins that boundary in the type
/// system: an oracle answers ancestor/parent/order/precedes/follows for
/// opaque NodeId handles and nothing else, so the same evaluator runs
/// against a live labeling scheme (OrderedPrimeScheme) or a catalog loaded
/// back from disk (LoadedCatalog) — and tests can assert both agree.
///
/// The batch entry points exist because the pipeline's hot loops test one
/// anchor against many candidates: a batch-aware implementation hoists
/// per-test setup (the divisor's reciprocal or Montgomery constants) out
/// of the loop.
/// The defaults simply loop over the pairwise calls, so implementing the
/// three scalar queries is enough for correctness.
class StructureOracle {
 public:
  virtual ~StructureOracle() = default;

  /// True iff `x` is a proper ancestor of `y`, decided from labels only.
  virtual bool IsAncestor(NodeId x, NodeId y) const = 0;

  /// True iff `x` is the parent of `y`, decided from labels (plus per-label
  /// metadata such as the self-label).
  virtual bool IsParent(NodeId x, NodeId y) const = 0;

  /// Global document-order number (root = 0).
  virtual std::uint64_t OrderOf(NodeId id) const = 0;

  /// True iff `x` precedes `y` in document order and is not its ancestor —
  /// the XPath `preceding` axis relation (Section 4.3).
  virtual bool Precedes(NodeId x, NodeId y) const {
    return OrderOf(x) < OrderOf(y) && !IsAncestor(x, y);
  }

  /// True iff `x` follows `y` in document order and is not its descendant —
  /// the XPath `following` axis relation.
  virtual bool Follows(NodeId x, NodeId y) const {
    return OrderOf(x) > OrderOf(y) && !IsAncestor(y, x);
  }

  // --- Batch queries ------------------------------------------------------

  /// Answers IsAncestor for every (ancestor, descendant) pair. `results`
  /// is resized to pairs.size(); results[i] is nonzero iff pairs[i].first
  /// is a proper ancestor of pairs[i].second.
  virtual void IsAncestorBatch(
      std::span<const std::pair<NodeId, NodeId>> pairs,
      std::vector<std::uint8_t>* results) const;

  /// Appends to `out` every candidate that is a proper descendant of
  /// `ancestor`, preserving candidate order — the single-anchor fast path
  /// of the descendant join.
  virtual void SelectDescendants(NodeId ancestor,
                                 std::span<const NodeId> candidates,
                                 std::vector<NodeId>* out) const;

  /// Appends to `out` every candidate that is a proper ancestor of
  /// `descendant`, preserving candidate order — the single-anchor fast
  /// path of the ancestor-axis join (the roles of divisor and dividend
  /// flip, so implementations filter by fingerprint rather than by a
  /// shared reciprocal).
  virtual void SelectAncestors(NodeId descendant,
                               std::span<const NodeId> candidates,
                               std::vector<NodeId>* out) const;
};

/// Adapts any (LabelingScheme, OrderFn) pair to the oracle interface —
/// how the non-prime schemes (interval, prefix, Dewey) ride the same query
/// pipeline for the Figure 15 comparisons. Both referents must outlive the
/// adapter.
class SchemeOracle : public StructureOracle {
 public:
  SchemeOracle(const LabelingScheme* scheme, OrderFn order_of)
      : scheme_(scheme), order_of_(std::move(order_of)) {}

  bool IsAncestor(NodeId x, NodeId y) const override {
    return scheme_->IsAncestor(x, y);
  }
  bool IsParent(NodeId x, NodeId y) const override {
    return scheme_->IsParent(x, y);
  }
  std::uint64_t OrderOf(NodeId id) const override { return order_of_(id); }

 private:
  const LabelingScheme* scheme_;
  OrderFn order_of_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_CORE_STRUCTURE_ORACLE_H_
