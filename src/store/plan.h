#ifndef PRIMELABEL_STORE_PLAN_H_
#define PRIMELABEL_STORE_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/structure_oracle.h"
#include "store/label_table.h"
#include "xml/tree.h"

namespace primelabel {

/// Per-query execution counters — the cost proxies the paper discusses
/// (per-row label predicates, the prefix scheme's UDF calls, order-number
/// generation through the SC table).
struct EvalStats {
  std::uint64_t rows_scanned = 0;   ///< rows fetched from the tag index
  std::uint64_t label_tests = 0;    ///< structural label predicates evaluated
  std::uint64_t order_lookups = 0;  ///< order numbers computed

  EvalStats& operator+=(const EvalStats& other) {
    rows_scanned += other.rows_scanned;
    label_tests += other.label_tests;
    order_lookups += other.order_lookups;
    return *this;
  }
};

/// Everything a physical operator needs: the table and the structural
/// oracle whose predicates it evaluates. The oracle abstracts over a live
/// labeling scheme (OrderedPrimeScheme, or any scheme via SchemeOracle)
/// and a catalog restored from disk — the operators below cannot tell the
/// difference, by construction.
struct QueryContext {
  const LabelTable* table = nullptr;
  const StructureOracle* oracle = nullptr;
  /// Worker threads the batched join executor may fan anchor runs across
  /// (1 = sequential, the default). Purely a speed knob: output — values
  /// and ordering — is identical at any setting. `label_tests` may come
  /// out higher than a sequential run's: parallel anchor groups cannot
  /// see each other's matches, so the cross-group early-out is lost;
  /// `rows_scanned` and `order_lookups` are unchanged.
  int num_workers = 1;
  mutable EvalStats stats;
};

/// Structural join: candidates that are descendants of at least one context
/// node, as the SQL translation's nested loop would compute it. Preserves
/// candidate order, no duplicates. Runs anchor-major over the oracle's
/// batch entry points (one cached divisor per anchor run); test counts and
/// output are identical to the candidate-major early-break nested loop.
std::vector<NodeId> JoinDescendants(const QueryContext& ctx,
                                    const std::vector<NodeId>& context,
                                    const std::vector<NodeId>& candidates);

/// Structural join for the child axis (parent predicate).
std::vector<NodeId> JoinChildren(const QueryContext& ctx,
                                 const std::vector<NodeId>& context,
                                 const std::vector<NodeId>& candidates);

/// Reverse joins for the `ancestor` / `parent` axes: candidates that are
/// an ancestor (parent) of at least one context node.
std::vector<NodeId> JoinAncestors(const QueryContext& ctx,
                                  const std::vector<NodeId>& context,
                                  const std::vector<NodeId>& candidates);
std::vector<NodeId> JoinParents(const QueryContext& ctx,
                                const std::vector<NodeId>& context,
                                const std::vector<NodeId>& candidates);

/// The XPath `following` / `preceding` axes: candidates after (before) some
/// context node in document order, excluding its descendants (ancestors).
std::vector<NodeId> SelectFollowing(const QueryContext& ctx,
                                    const std::vector<NodeId>& context,
                                    const std::vector<NodeId>& candidates);
std::vector<NodeId> SelectPreceding(const QueryContext& ctx,
                                    const std::vector<NodeId>& context,
                                    const std::vector<NodeId>& candidates);

/// The sibling axes: candidates sharing a parent row with a context node
/// and ordered after (before) it.
std::vector<NodeId> SelectFollowingSiblings(
    const QueryContext& ctx, const std::vector<NodeId>& context,
    const std::vector<NodeId>& candidates);
std::vector<NodeId> SelectPrecedingSiblings(
    const QueryContext& ctx, const std::vector<NodeId>& context,
    const std::vector<NodeId>& candidates);

/// Position predicate `[n]` (1-based): groups `nodes` by their parent row,
/// sorts each group by document order, keeps the n-th of each group — the
/// strategy of Section 4.3 ("sorted first according to their order
/// numbers ... return the node that is in the second position").
std::vector<NodeId> PositionFilter(const QueryContext& ctx,
                                   const std::vector<NodeId>& nodes, int n);

/// Sorts nodes by document order (ascending) and removes duplicates.
std::vector<NodeId> SortByOrder(const QueryContext& ctx,
                                std::vector<NodeId> nodes);

}  // namespace primelabel

#endif  // PRIMELABEL_STORE_PLAN_H_
