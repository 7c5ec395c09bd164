#ifndef PRIMELABEL_XPATH_EVALUATOR_H_
#define PRIMELABEL_XPATH_EVALUATOR_H_

#include <string_view>
#include <vector>

#include "store/plan.h"
#include "util/status.h"
#include "xpath/ast.h"

namespace primelabel {

/// Evaluates parsed XPath queries against a LabelTable through a labeling
/// scheme — the query pipeline of Sections 4.3 and 5.2: tag-index scan,
/// structural join via label predicates, order filtering via the order
/// provider, position selection by sorting on order numbers.
///
/// The evaluator is deliberately scheme-agnostic: response-time differences
/// between schemes come entirely from the cost of their label predicates
/// and order lookups, which is exactly the comparison Figure 15 makes.
///
/// Library callers query through the planner (planner/executor.h). This
/// step-at-a-time walker is kept as the reference the planner's
/// differential tests compare against and as the engine whose counters
/// bench_fig15_queries reports.
class XPathEvaluator {
 public:
  /// `ctx` must outlive the evaluator; its stats accumulate across queries.
  explicit XPathEvaluator(const QueryContext* ctx) : ctx_(ctx) {}

  /// Runs a parsed query; results are element node ids in document order.
  std::vector<NodeId> Evaluate(const XPathQuery& query) const;

  /// Parses and runs; fails only on parse errors.
  Result<std::vector<NodeId>> Evaluate(std::string_view query) const;

  const EvalStats& stats() const { return ctx_->stats; }

 private:
  /// Candidate rows for a name test ("*" scans every row).
  const std::vector<NodeId>& Candidates(const std::string& name_test) const;

  const QueryContext* ctx_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_XPATH_EVALUATOR_H_
