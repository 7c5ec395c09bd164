#include "planner/executor.h"

#include <string>

#include "planner/compiler.h"

namespace primelabel {

namespace {

const std::vector<NodeId>& EmptyRows() {
  static const std::vector<NodeId> empty;
  return empty;
}

/// Marks the tag scan at the bottom of each join's candidate chain
/// (walking down through the pushed-down predicate filters). The join
/// kernels already count their candidate input as rows_scanned, so the
/// executor charges a scan itself only when no kernel will — keeping the
/// counter's meaning (rows fetched from the tag index) aligned with the
/// evaluator's accounting.
std::vector<char> ScansChargedByJoins(const PhysicalPlan& plan) {
  std::vector<char> charged(plan.ops.size(), 0);
  for (const PlanOp& op : plan.ops) {
    int c = op.candidates;
    if (c < 0) continue;
    while (plan.ops[static_cast<std::size_t>(c)].kind ==
               PlanOpKind::kAttributeFilter ||
           plan.ops[static_cast<std::size_t>(c)].kind ==
               PlanOpKind::kTextFilter) {
      c = plan.ops[static_cast<std::size_t>(c)].input;
    }
    charged[static_cast<std::size_t>(c)] = 1;
  }
  return charged;
}

}  // namespace

std::vector<NodeId> ExecutePlan(const PhysicalPlan& plan,
                                const QueryContext& ctx,
                                PlanProfile* profile) {
  if (plan.ops.empty()) return {};
  PL_CHECK(ctx.table != nullptr && ctx.oracle != nullptr);
  const std::vector<char> charged = ScansChargedByJoins(plan);
  // Results by op index. Tag scans alias the tag index; everything else
  // materializes into `owned`.
  std::vector<std::vector<NodeId>> owned(plan.ops.size());
  std::vector<const std::vector<NodeId>*> slot(plan.ops.size(), nullptr);
  if (profile != nullptr) {
    profile->ops.assign(plan.ops.size(), OpProfile());
    profile->totals = EvalStats();
  }
  const EvalStats run_start = ctx.stats;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    PL_CHECK(op.input < static_cast<int>(i) &&
             op.candidates < static_cast<int>(i));
    const std::vector<NodeId>& in =
        op.input >= 0 ? *slot[static_cast<std::size_t>(op.input)]
                      : EmptyRows();
    const std::vector<NodeId>& cand =
        op.candidates >= 0 ? *slot[static_cast<std::size_t>(op.candidates)]
                           : EmptyRows();
    const EvalStats before = ctx.stats;
    switch (op.kind) {
      case PlanOpKind::kTagScan:
        slot[i] = op.arg == "*" ? &ctx.table->AllRows()
                                : &ctx.table->Rows(op.arg);
        if (!charged[i]) ctx.stats.rows_scanned += slot[i]->size();
        break;
      case PlanOpKind::kDescendantJoin:
        owned[i] = JoinDescendants(ctx, in, cand);
        break;
      case PlanOpKind::kChildJoin:
        owned[i] = JoinChildren(ctx, in, cand);
        break;
      case PlanOpKind::kAncestorJoin:
        owned[i] = JoinAncestors(ctx, in, cand);
        break;
      case PlanOpKind::kParentJoin:
        owned[i] = JoinParents(ctx, in, cand);
        break;
      case PlanOpKind::kFollowingFilter:
        owned[i] = SelectFollowing(ctx, in, cand);
        break;
      case PlanOpKind::kPrecedingFilter:
        owned[i] = SelectPreceding(ctx, in, cand);
        break;
      case PlanOpKind::kFollowingSiblingFilter:
        owned[i] = SelectFollowingSiblings(ctx, in, cand);
        break;
      case PlanOpKind::kPrecedingSiblingFilter:
        owned[i] = SelectPrecedingSiblings(ctx, in, cand);
        break;
      case PlanOpKind::kAttributeFilter:
        for (NodeId id : in) {
          const std::string* attribute = ctx.table->AttributeOf(id, op.arg);
          if (attribute != nullptr && *attribute == op.arg2) {
            owned[i].push_back(id);
          }
        }
        break;
      case PlanOpKind::kTextFilter:
        for (NodeId id : in) {
          const std::string* text = ctx.table->TextOf(id);
          if (text != nullptr && *text == op.arg) owned[i].push_back(id);
        }
        break;
      case PlanOpKind::kPositionSelect:
        owned[i] = PositionFilter(ctx, in, op.position);
        break;
      case PlanOpKind::kOrderSort:
        owned[i] = SortByOrder(ctx, in);
        break;
    }
    if (slot[i] == nullptr) slot[i] = &owned[i];
    if (profile != nullptr) {
      OpProfile& p = profile->ops[i];
      if (op.input >= 0) p.rows_in = in.size();
      if (op.candidates >= 0) p.candidates_in = cand.size();
      p.rows_out = slot[i]->size();
      p.label_tests = ctx.stats.label_tests - before.label_tests;
      p.order_lookups = ctx.stats.order_lookups - before.order_lookups;
    }
  }
  if (profile != nullptr) {
    profile->totals.rows_scanned = ctx.stats.rows_scanned - run_start.rows_scanned;
    profile->totals.label_tests = ctx.stats.label_tests - run_start.label_tests;
    profile->totals.order_lookups =
        ctx.stats.order_lookups - run_start.order_lookups;
  }
  return *slot.back();
}

Result<std::vector<NodeId>> ExecuteXPath(const LabelTable& table,
                                         const StructureOracle& oracle,
                                         std::string_view xpath,
                                         int num_workers, EvalStats* stats) {
  Result<PhysicalPlan> plan = PlanCompiler::Compile(xpath);
  if (!plan.ok()) return plan.status();
  QueryContext ctx;
  ctx.table = &table;
  ctx.oracle = &oracle;
  ctx.num_workers = num_workers < 1 ? 1 : num_workers;
  std::vector<NodeId> result = ExecutePlan(plan.value(), ctx);
  if (stats != nullptr) *stats += ctx.stats;
  return result;
}

}  // namespace primelabel
