#include "xpath/evaluator.h"

#include "util/status.h"
#include "xpath/parser.h"

namespace primelabel {

const std::vector<NodeId>& XPathEvaluator::Candidates(
    const std::string& name_test) const {
  if (name_test == "*") return ctx_->table->AllRows();
  return ctx_->table->Rows(name_test);
}

std::vector<NodeId> XPathEvaluator::Evaluate(const XPathQuery& query) const {
  PL_CHECK(!query.steps.empty());
  std::vector<NodeId> context;
  for (std::size_t i = 0; i < query.steps.size(); ++i) {
    const XPathStep& step = query.steps[i];
    const std::vector<NodeId>& candidates = Candidates(step.name_test);
    std::vector<NodeId> result;
    if (i == 0 && step.axis == XPathAxis::kDescendant) {
      // Rooted first step: every row is a descendant-or-self of the
      // document, so this is a pure tag-index scan.
      ctx_->stats.rows_scanned += candidates.size();
      result = candidates;
    } else {
      switch (step.axis) {
        case XPathAxis::kChild:
          result = JoinChildren(*ctx_, context, candidates);
          break;
        case XPathAxis::kDescendant:
          result = JoinDescendants(*ctx_, context, candidates);
          break;
        case XPathAxis::kFollowing:
          result = SelectFollowing(*ctx_, context, candidates);
          break;
        case XPathAxis::kPreceding:
          result = SelectPreceding(*ctx_, context, candidates);
          break;
        case XPathAxis::kFollowingSibling:
          result = SelectFollowingSiblings(*ctx_, context, candidates);
          break;
        case XPathAxis::kPrecedingSibling:
          result = SelectPrecedingSiblings(*ctx_, context, candidates);
          break;
        case XPathAxis::kParent:
          result = JoinParents(*ctx_, context, candidates);
          break;
        case XPathAxis::kAncestor:
          result = JoinAncestors(*ctx_, context, candidates);
          break;
      }
    }
    if (step.attribute_equals.has_value()) {
      const auto& [key, value] = *step.attribute_equals;
      std::vector<NodeId> filtered;
      for (NodeId id : result) {
        const std::string* attribute = ctx_->table->AttributeOf(id, key);
        if (attribute != nullptr && *attribute == value) {
          filtered.push_back(id);
        }
      }
      result = std::move(filtered);
    }
    if (step.text_equals.has_value()) {
      std::vector<NodeId> filtered;
      for (NodeId id : result) {
        const std::string* text = ctx_->table->TextOf(id);
        if (text != nullptr && *text == *step.text_equals) {
          filtered.push_back(id);
        }
      }
      result = std::move(filtered);
    }
    if (step.position.has_value()) {
      result = PositionFilter(*ctx_, result, *step.position);
    }
    context = SortByOrder(*ctx_, std::move(result));
  }
  return context;
}

Result<std::vector<NodeId>> XPathEvaluator::Evaluate(
    std::string_view query) const {
  Result<XPathQuery> parsed = ParseXPath(query);
  if (!parsed.ok()) return parsed.status();
  return Evaluate(parsed.value());
}

}  // namespace primelabel
