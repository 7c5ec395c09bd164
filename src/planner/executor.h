#ifndef PRIMELABEL_PLANNER_EXECUTOR_H_
#define PRIMELABEL_PLANNER_EXECUTOR_H_

#include <string_view>
#include <vector>

#include "planner/physical_plan.h"
#include "store/plan.h"
#include "util/status.h"

namespace primelabel {

/// Runs a compiled plan against a snapshot. Descendant, child, following,
/// preceding and sibling steps run as order windows: galloping searches
/// on OrderOf and IsAncestor over the document-ordered candidate list, so
/// an anchored step reads its anchors' runs, not the whole tag list.
/// Ancestor and parent joins, position selects and sorts execute through
/// the store/plan.h kernels (the batched joins fan anchor runs across
/// ctx.num_workers); tag scans borrow the tag index in place (no copies);
/// predicate filters are row-local string compares.
///
/// The returned node set is bit-identical to XPathEvaluator on the same
/// context — the differential suite in tests/planner_test.cc holds this
/// across scheme/catalog and heap/arena backends. Execution counters
/// accumulate into ctx.stats as usual; when `profile` is non-null it is
/// filled with per-operator cardinalities and counter deltas (one
/// OpProfile per plan op) for EXPLAIN.
std::vector<NodeId> ExecutePlan(const PhysicalPlan& plan,
                                const QueryContext& ctx,
                                PlanProfile* profile = nullptr);

/// Parses, compiles and executes `xpath` over a (table, oracle) pair with
/// a private QueryContext, caching nothing — the query path of every
/// caller outside the query service (LabeledDocument, EpochView and so
/// Snapshot, DocumentStore's per-document loop). Safe to call concurrently
/// over one shared table and oracle. `num_workers` feeds the join
/// executor's anchor fan-out; `stats` (optional) accumulates the run's
/// counters. Fails only with kParseError.
Result<std::vector<NodeId>> ExecuteXPath(const LabelTable& table,
                                         const StructureOracle& oracle,
                                         std::string_view xpath,
                                         int num_workers = 1,
                                         EvalStats* stats = nullptr);

}  // namespace primelabel

#endif  // PRIMELABEL_PLANNER_EXECUTOR_H_
