#ifndef PRIMELABEL_PLANNER_PHYSICAL_PLAN_H_
#define PRIMELABEL_PLANNER_PHYSICAL_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "store/plan.h"

namespace primelabel {

/// Physical operator vocabulary the plan compiler lowers XPath into —
/// the paper's Section 4.3/5.2 pipeline (tag-index scan, structural join
/// via label predicates, order filtering, position selection) made
/// explicit, the way pg_xnode lowers XPath into PostgreSQL scan plans.
///
/// The ancestor and parent joins execute through the store/plan.h scan
/// kernels, which drive the StructureOracle batch entry points
/// (IsAncestorBatch / SelectAncestors). The other six axes execute as
/// order windows (planner/executor.cc): galloping searches over the
/// document-ordered candidate list that read only the anchors' runs.
enum class PlanOpKind {
  /// Tag-index scan: all rows with a tag (or every row for "*"), in
  /// document order. The leaf of every step.
  kTagScan,
  /// Structural joins: rows of the candidate input related to at least
  /// one row of the context input. Candidate order (document order) is
  /// preserved; output never holds duplicates. Descendant and child joins
  /// are windows (each anchor's contiguous run, IsParent-filtered for
  /// child); ancestor and parent joins scan every candidate.
  kDescendantJoin,
  kChildJoin,
  kAncestorJoin,
  kParentJoin,
  /// Order filters — the following/preceding axes: candidates after
  /// (before) some context row in document order, minus the context row's
  /// descendants (ancestors). Windows: a suffix after a run, a prefix
  /// before the last anchor.
  kFollowingFilter,
  kPrecedingFilter,
  /// Sibling filters: candidates sharing a parent row with a context row
  /// and ordered after (before) it. Windows inside the parent's run.
  kFollowingSiblingFilter,
  kPrecedingSiblingFilter,
  /// Row-local predicate filters ([@key='value'], [text()='value']).
  /// The compiler pushes these below the ancestor and parent joins, whose
  /// label tests they save, and stacks them on every other join's output.
  kAttributeFilter,
  kTextFilter,
  /// The [n] predicate: group by parent row, sort each group by order
  /// number, keep the n-th of each group. Output is NOT document-ordered
  /// (group order follows first-seen children), so the compiler always
  /// emits an OrderSort after it.
  kPositionSelect,
  /// Sort by document order + dedup — the evaluator runs this after
  /// every step; the planner emits it only when an input can actually be
  /// out of order (after kPositionSelect), which is where planned
  /// execution saves its order lookups.
  kOrderSort,
};

/// Short operator name for EXPLAIN ("TagScan", "DescendantJoin", ...).
const char* PlanOpKindName(PlanOpKind kind);

/// One physical operator. Operators reference their inputs by index into
/// PhysicalPlan::ops, forming a DAG in topological order (an op only
/// references lower indices); the last op produces the query result.
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kTagScan;
  /// Context rows flowing in (the previous step's output). -1 means an
  /// empty context — a non-descendant first step has nothing to anchor
  /// on, matching the evaluator's empty-context joins.
  int input = -1;
  /// Candidate side of a join/filter op (a kTagScan or a predicate filter
  /// stacked on one); -1 for ops that only transform `input`.
  int candidates = -1;
  /// kTagScan: the name test ("*" scans every row).
  /// kAttributeFilter: the attribute key. kTextFilter: the text value.
  std::string arg;
  /// kAttributeFilter: the attribute value.
  std::string arg2;
  /// kPositionSelect: the 1-based position.
  int position = 0;
};

/// A compiled query: operators in execution order. Immutable once built —
/// plans are shared across sessions by the plan cache and carry no
/// per-execution state (cardinalities live in PlanProfile).
struct PhysicalPlan {
  /// Canonical query text (the parse round-trip) — the plan cache key.
  std::string query;
  std::vector<PlanOp> ops;

  /// Structure-only rendering ("TagScan(act)" etc.), one line.
  std::string ToString() const;
};

/// Per-operator execution counts from one ExecutePlan run — what EXPLAIN
/// prints next to each operator.
struct OpProfile {
  std::uint64_t rows_in = 0;        ///< context rows consumed
  std::uint64_t candidates_in = 0;  ///< candidate rows consumed (joins)
  std::uint64_t rows_out = 0;
  std::uint64_t label_tests = 0;
  std::uint64_t order_lookups = 0;
};

struct PlanProfile {
  std::vector<OpProfile> ops;  ///< parallel to PhysicalPlan::ops
  EvalStats totals;            ///< summed over the run
};

/// Renders the plan (and, when `profile` is non-null, per-operator
/// cardinalities) as one protocol-friendly line:
///   #0 TagScan(play) out=10 | #1 TagScan(act) out=50 |
///   #2 DescendantJoin(#0,#1) in=10 cand=50 out=50 tests=57 ord=20 | ...
std::string ExplainPlan(const PhysicalPlan& plan,
                        const PlanProfile* profile = nullptr);

}  // namespace primelabel

#endif  // PRIMELABEL_PLANNER_PHYSICAL_PLAN_H_
