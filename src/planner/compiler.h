#ifndef PRIMELABEL_PLANNER_COMPILER_H_
#define PRIMELABEL_PLANNER_COMPILER_H_

#include <string>
#include <string_view>

#include "planner/physical_plan.h"
#include "util/status.h"
#include "xpath/ast.h"

namespace primelabel {

/// Lowers parsed XPath queries into physical operator plans.
///
/// The lowering is a direct transcription of the step-at-a-time evaluator
/// semantics (xpath/evaluator.cc) — every query returns the bit-identical
/// node set in the identical document order — with two static
/// optimizations the tree-walker cannot make:
///
///  * Predicate placement: [@key='value'] and [text()='value'] are
///    row-local. Below the ancestor and parent joins, which test every
///    candidate, they screen the candidate (tag-scan) side first: same
///    result set by commutativity, fewer label tests. Every other axis
///    runs as an order window that reads only the rows it returns, so
///    there the filters read the window's output, as in the walker.
///  * Sort elision: the evaluator re-sorts (and re-derives order numbers
///    for) its full context after every step. Tag scans emit document
///    order, and every join/filter operator preserves candidate order
///    without duplicates, so a sort can only be needed after a
///    kPositionSelect (whose group-major output may interleave). The
///    compiler tracks orderedness statically and emits kOrderSort exactly
///    there — on order-lookup-heavy schemes (prime's SC table) this is
///    where planned execution wins its headline time back.
class PlanCompiler {
 public:
  /// Parses and lowers; kParseError on malformed XPath. The plan's
  /// `query` field is the canonical (round-tripped) form.
  static Result<PhysicalPlan> Compile(std::string_view xpath);

  /// Lowers an already-parsed query.
  static PhysicalPlan Compile(const XPathQuery& query);
};

}  // namespace primelabel

#endif  // PRIMELABEL_PLANNER_COMPILER_H_
