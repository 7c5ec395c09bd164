#include "planner/query_planner.h"

#include <utility>

#include "xpath/parser.h"

namespace primelabel {

Result<std::shared_ptr<const PhysicalPlan>> QueryPlanner::PlanFor(
    std::string_view xpath) {
  Result<XPathQuery> parsed = ParseXPath(xpath);
  if (!parsed.ok()) return parsed.status();
  const std::string normalized = parsed.value().ToString();
  std::shared_ptr<const PhysicalPlan> plan = plans_.Lookup(normalized);
  if (plan == nullptr) {
    plan = plans_.Insert(
        normalized,
        std::make_shared<const PhysicalPlan>(
            PlanCompiler::Compile(parsed.value())));
  }
  return plan;
}

Result<QueryPlanner::NodeSet> QueryPlanner::Query(
    const LabelTable& table, const StructureOracle& oracle,
    std::uint64_t epoch, std::uint64_t journal_bytes, std::string_view xpath,
    int num_workers, EvalStats* stats, bool* result_cache_hit) {
  Result<std::shared_ptr<const PhysicalPlan>> plan = PlanFor(xpath);
  if (!plan.ok()) return plan.status();
  ResultKey key{plan.value()->query, epoch, journal_bytes};
  if (NodeSet cached = results_.Lookup(key)) {
    if (result_cache_hit != nullptr) *result_cache_hit = true;
    return cached;
  }
  if (result_cache_hit != nullptr) *result_cache_hit = false;
  QueryContext ctx;
  ctx.table = &table;
  ctx.oracle = &oracle;
  ctx.num_workers = num_workers < 1 ? 1 : num_workers;
  auto result = std::make_shared<const std::vector<NodeId>>(
      ExecutePlan(*plan.value(), ctx));
  if (stats != nullptr) *stats += ctx.stats;
  return results_.Insert(key, std::move(result));
}

Result<std::string> QueryPlanner::Explain(const LabelTable& table,
                                          const StructureOracle& oracle,
                                          std::string_view xpath,
                                          int num_workers, EvalStats* stats) {
  Result<std::shared_ptr<const PhysicalPlan>> plan = PlanFor(xpath);
  if (!plan.ok()) return plan.status();
  QueryContext ctx;
  ctx.table = &table;
  ctx.oracle = &oracle;
  ctx.num_workers = num_workers < 1 ? 1 : num_workers;
  PlanProfile profile;
  ExecutePlan(*plan.value(), ctx, &profile);
  if (stats != nullptr) *stats += ctx.stats;
  return ExplainPlan(*plan.value(), &profile);
}

}  // namespace primelabel
