#include "planner/compiler.h"

#include <utility>

#include "xpath/parser.h"

namespace primelabel {

namespace {

PlanOpKind JoinKindFor(XPathAxis axis) {
  switch (axis) {
    case XPathAxis::kChild:
      return PlanOpKind::kChildJoin;
    case XPathAxis::kDescendant:
      return PlanOpKind::kDescendantJoin;
    case XPathAxis::kFollowing:
      return PlanOpKind::kFollowingFilter;
    case XPathAxis::kPreceding:
      return PlanOpKind::kPrecedingFilter;
    case XPathAxis::kFollowingSibling:
      return PlanOpKind::kFollowingSiblingFilter;
    case XPathAxis::kPrecedingSibling:
      return PlanOpKind::kPrecedingSiblingFilter;
    case XPathAxis::kParent:
      return PlanOpKind::kParentJoin;
    case XPathAxis::kAncestor:
      return PlanOpKind::kAncestorJoin;
  }
  return PlanOpKind::kDescendantJoin;
}

}  // namespace

PhysicalPlan PlanCompiler::Compile(const XPathQuery& query) {
  PhysicalPlan plan;
  plan.query = query.ToString();
  auto add = [&plan](PlanOp op) {
    plan.ops.push_back(std::move(op));
    return static_cast<int>(plan.ops.size()) - 1;
  };
  int context = -1;  // no context before the first step
  for (std::size_t i = 0; i < query.steps.size(); ++i) {
    const XPathStep& step = query.steps[i];
    // Row-local predicates, stacked on `rows` in the walker's order.
    auto add_filters = [&](int rows) {
      if (step.attribute_equals.has_value()) {
        PlanOp filter;
        filter.kind = PlanOpKind::kAttributeFilter;
        filter.input = rows;
        filter.arg = step.attribute_equals->first;
        filter.arg2 = step.attribute_equals->second;
        rows = add(std::move(filter));
      }
      if (step.text_equals.has_value()) {
        PlanOp filter;
        filter.kind = PlanOpKind::kTextFilter;
        filter.input = rows;
        filter.arg = *step.text_equals;
        rows = add(std::move(filter));
      }
      return rows;
    };
    PlanOp scan;
    scan.kind = PlanOpKind::kTagScan;
    scan.arg = step.name_test;
    int cur = add(std::move(scan));
    if (i == 0 && step.axis == XPathAxis::kDescendant) {
      // Rooted first step: every row is a descendant-or-self of the
      // document, so the (filtered) scan IS the step result.
      cur = add_filters(cur);
    } else {
      PlanOp join;
      join.kind = JoinKindFor(step.axis);
      join.input = context;  // -1 on a non-descendant first step: the
                             // empty context joins to an empty result,
                             // matching the evaluator.
      // A scan join tests every candidate, so the filters screen its
      // candidates first (same set: the join keeps a candidate iff a
      // pointwise predicate against some context row holds). A window
      // reads only its run, so the filters read its output instead.
      const bool scan_join = join.kind == PlanOpKind::kAncestorJoin ||
                             join.kind == PlanOpKind::kParentJoin;
      join.candidates = scan_join ? add_filters(cur) : cur;
      cur = add(std::move(join));
      if (!scan_join) cur = add_filters(cur);
    }
    if (step.position.has_value()) {
      PlanOp position;
      position.kind = PlanOpKind::kPositionSelect;
      position.input = cur;
      position.position = *step.position;
      cur = add(std::move(position));
      // PositionSelect's output is group-major (first-seen parent order),
      // the one place the pipeline can leave document order — restore it
      // here and nowhere else. Scans emit document order and every
      // join/filter preserves candidate order without duplicates, so all
      // other steps are already sorted.
      PlanOp sort;
      sort.kind = PlanOpKind::kOrderSort;
      sort.input = cur;
      cur = add(std::move(sort));
    }
    context = cur;
  }
  return plan;
}

Result<PhysicalPlan> PlanCompiler::Compile(std::string_view xpath) {
  Result<XPathQuery> parsed = ParseXPath(xpath);
  if (!parsed.ok()) return parsed.status();
  return Compile(parsed.value());
}

}  // namespace primelabel
