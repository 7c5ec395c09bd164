// Coverage for the support types: Status/Result semantics, EvalStats
// accumulation, TreeStats rendering, axis names, and LabelString smoke
// tests across every scheme (human-facing output should never crash or be
// empty).

#include <memory>

#include <gtest/gtest.h>

#include "core/decomposed_prime_scheme.h"
#include "core/ordered_prime_scheme.h"
#include "labeling/dewey.h"
#include "labeling/float_interval.h"
#include "labeling/gapped_interval.h"
#include "labeling/interval.h"
#include "labeling/prefix.h"
#include "labeling/prime_bottom_up.h"
#include "labeling/prime_optimized.h"
#include "labeling/prime_top_down.h"
#include "store/plan.h"
#include "util/status.h"
#include "xml/stats.h"
#include "xpath/ast.h"

namespace primelabel {
namespace {

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_TRUE(Status().ok());
  Status s = Status::ParseError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "ParseError: bad input");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
}

TEST(Status, CodeNamesCoverEveryCode) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kParseError,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultType, ValueAndErrorPaths) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(*ok, 42);

  Result<int> err(Status::NotFound("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);

  // A Result built from an OK status is a programming error surfaced as
  // kInternal rather than a silent empty value.
  Result<int> weird{Status::Ok()};
  EXPECT_FALSE(weird.ok());
  EXPECT_EQ(weird.status().code(), StatusCode::kInternal);
}

TEST(ResultType, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

TEST(EvalStatsType, Accumulates) {
  EvalStats a{10, 20, 30};
  EvalStats b{1, 2, 3};
  a += b;
  EXPECT_EQ(a.rows_scanned, 11u);
  EXPECT_EQ(a.label_tests, 22u);
  EXPECT_EQ(a.order_lookups, 33u);
}

TEST(TreeStatsType, ToStringMentionsEveryField) {
  TreeStats stats;
  stats.node_count = 7;
  stats.max_depth = 3;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("nodes=7"), std::string::npos);
  EXPECT_NE(text.find("depth=3"), std::string::npos);
  EXPECT_NE(text.find("fanout"), std::string::npos);
}

TEST(XPathAxisNames, AllDistinct) {
  std::vector<std::string> names;
  for (XPathAxis axis :
       {XPathAxis::kChild, XPathAxis::kDescendant, XPathAxis::kFollowing,
        XPathAxis::kPreceding, XPathAxis::kFollowingSibling,
        XPathAxis::kPrecedingSibling, XPathAxis::kParent,
        XPathAxis::kAncestor}) {
    names.push_back(XPathAxisName(axis));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(LabelStrings, EverySchemeRendersNonEmptyLabels) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId a = tree.AppendChild(root, "a");
  NodeId leaf = tree.AppendChild(a, "leaf");

  std::vector<std::unique_ptr<LabelingScheme>> schemes;
  schemes.push_back(std::make_unique<IntervalScheme>());
  schemes.push_back(
      std::make_unique<IntervalScheme>(IntervalVariant::kOrderSize));
  schemes.push_back(std::make_unique<GappedIntervalScheme>());
  schemes.push_back(std::make_unique<FloatIntervalScheme>());
  schemes.push_back(std::make_unique<PrefixScheme>(PrefixVariant::kUnary));
  schemes.push_back(std::make_unique<PrefixScheme>(PrefixVariant::kBinary));
  schemes.push_back(std::make_unique<DeweyScheme>());
  schemes.push_back(std::make_unique<PrimeTopDownScheme>());
  schemes.push_back(std::make_unique<PrimeBottomUpScheme>());
  schemes.push_back(std::make_unique<PrimeOptimizedScheme>());
  schemes.push_back(std::make_unique<OrderedPrimeScheme>());
  schemes.push_back(std::make_unique<DecomposedPrimeScheme>(2));

  std::vector<std::string> names;
  for (auto& scheme : schemes) {
    scheme->LabelTree(tree);
    names.emplace_back(scheme->name());
    for (NodeId id : {root, a, leaf}) {
      EXPECT_FALSE(scheme->LabelString(id).empty())
          << scheme->name() << " node " << id;
      EXPECT_GE(scheme->LabelBits(id), 0) << scheme->name();
    }
    EXPECT_FALSE(scheme->name().empty());
    // Deleting never relabels in any scheme (default HandleDelete).
    tree.Detach(leaf);
    EXPECT_EQ(scheme->HandleDelete(leaf), 0) << scheme->name();
    // Restore for the next scheme (fresh leaf).
    leaf = tree.AppendChild(a, "leaf");
    scheme->LabelTree(tree);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
      << "scheme names must be distinct";
}

}  // namespace
}  // namespace primelabel
