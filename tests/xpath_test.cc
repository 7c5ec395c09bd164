#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/ordered_prime_scheme.h"
#include "labeling/interval.h"
#include "labeling/prefix.h"
#include "store/label_table.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"
#include "xpath/oracle.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace primelabel {
namespace {

// --- Lexer / parser -----------------------------------------------------

TEST(XPathParser, SimplePaths) {
  Result<XPathQuery> q = ParseXPath("/play//act");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->steps.size(), 2u);
  // Leading /play is rooted: descendant-or-self semantics.
  EXPECT_EQ(q->steps[0].axis, XPathAxis::kDescendant);
  EXPECT_EQ(q->steps[0].name_test, "play");
  EXPECT_EQ(q->steps[1].axis, XPathAxis::kDescendant);
  EXPECT_EQ(q->steps[1].name_test, "act");
  EXPECT_FALSE(q->steps[1].position.has_value());
}

TEST(XPathParser, ChildAxisAfterFirstStep) {
  Result<XPathQuery> q = ParseXPath("/play/act/scene");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].axis, XPathAxis::kChild);
  EXPECT_EQ(q->steps[2].axis, XPathAxis::kChild);
}

TEST(XPathParser, PositionalPredicate) {
  Result<XPathQuery> q = ParseXPath("/play//act[4]");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q->steps[1].position.has_value());
  EXPECT_EQ(*q->steps[1].position, 4);
}

TEST(XPathParser, ExplicitAxes) {
  Result<XPathQuery> q =
      ParseXPath("/play//act[3]//Following::act");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->steps.size(), 3u);
  EXPECT_EQ(q->steps[2].axis, XPathAxis::kFollowing);
  EXPECT_EQ(q->steps[2].name_test, "act");
}

TEST(XPathParser, AxisNamesAreCaseInsensitive) {
  for (const char* text :
       {"/a//Following-sibling::b[2]", "/a//Following-Sibling::b[2]",
        "/a//following-sibling::b[2]"}) {
    Result<XPathQuery> q = ParseXPath(text);
    ASSERT_TRUE(q.ok()) << text;
    EXPECT_EQ(q->steps[1].axis, XPathAxis::kFollowingSibling);
    EXPECT_EQ(*q->steps[1].position, 2);
  }
}

TEST(XPathParser, PrecedingAxes) {
  Result<XPathQuery> q = ParseXPath("/speech[4]//Preceding::line");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].axis, XPathAxis::kPreceding);
}

TEST(XPathParser, StarNameTest) {
  Result<XPathQuery> q = ParseXPath("//act/*");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].name_test, "*");
}

TEST(XPathParser, AttributePredicate) {
  Result<XPathQuery> q = ParseXPath("//speaker[@name='HAMLET']");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->steps[0].attribute_equals.has_value());
  EXPECT_EQ(q->steps[0].attribute_equals->first, "name");
  EXPECT_EQ(q->steps[0].attribute_equals->second, "HAMLET");
  // Double quotes work too, and combine with a position predicate.
  Result<XPathQuery> q2 = ParseXPath("//speech[@id=\"s1\"][2]");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_TRUE(q2->steps[0].attribute_equals.has_value());
  EXPECT_EQ(*q2->steps[0].position, 2);
}

TEST(XPathParser, TextPredicate) {
  Result<XPathQuery> q = ParseXPath("//author[text()='John']");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->steps[0].text_equals.has_value());
  EXPECT_EQ(*q->steps[0].text_equals, "John");
  // Combined with a position predicate (the intro's book/author[2]/"John").
  Result<XPathQuery> q2 = ParseXPath("//book/author[text()='John'][2]");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_TRUE(q2->steps[1].text_equals.has_value());
  EXPECT_EQ(*q2->steps[1].position, 2);
  // Round-trips through ToString.
  Result<XPathQuery> reparsed = ParseXPath(q2->ToString());
  ASSERT_TRUE(reparsed.ok()) << q2->ToString();
  EXPECT_EQ(reparsed->steps[1].text_equals, q2->steps[1].text_equals);
}

TEST(XPathParser, RejectsMalformedTextPredicates) {
  EXPECT_FALSE(ParseXPath("//a[text()]").ok());
  EXPECT_FALSE(ParseXPath("//a[text(]").ok());
  EXPECT_FALSE(ParseXPath("//a[text()=]").ok());
  EXPECT_FALSE(ParseXPath("//a[text()='x'][text()='y']").ok());
}

TEST(XPathEvalText, FiltersByDirectTextContent) {
  Result<XmlTree> doc = ParseXml(
      "<bib>"
      "<book><author>John</author><author>Jane</author></book>"
      "<book><author>John</author></book>"
      "</bib>");
  ASSERT_TRUE(doc.ok());
  LabelTable table(*doc);
  IntervalScheme scheme;
  scheme.LabelTree(*doc);
  SchemeOracle oracle(&scheme, [&scheme](NodeId id) { return scheme.low(id); });
  QueryContext ctx;
  ctx.table = &table;
  ctx.oracle = &oracle;
  XPathEvaluator evaluator(&ctx);
  EXPECT_EQ(evaluator.Evaluate("//author[text()='John']")->size(), 2u);
  EXPECT_EQ(evaluator.Evaluate("//author[text()='Jane']")->size(), 1u);
  EXPECT_EQ(evaluator.Evaluate("//author[text()='Nobody']")->size(), 0u);
  // Elements without text children never match.
  EXPECT_EQ(evaluator.Evaluate("//book[text()='John']")->size(), 0u);
  // Oracle agrees.
  Result<XPathQuery> q = ParseXPath("//author[text()='John']");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(evaluator.Evaluate(q.value()),
            EvaluateXPathOnTree(*doc, q.value()));
}

TEST(XPathParser, RejectsMalformedAttributePredicates) {
  EXPECT_FALSE(ParseXPath("//a[@]").ok());
  EXPECT_FALSE(ParseXPath("//a[@k]").ok());
  EXPECT_FALSE(ParseXPath("//a[@k=]").ok());
  EXPECT_FALSE(ParseXPath("//a[@k='v]").ok());          // unterminated
  EXPECT_FALSE(ParseXPath("//a[@k='v'][@j='w'][@i='u']").ok());  // dup attr
  EXPECT_FALSE(ParseXPath("//a[1][2]").ok());           // dup position
}

TEST(XPathParser, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("play").ok());          // missing leading slash
  EXPECT_FALSE(ParseXPath("/play[").ok());
  EXPECT_FALSE(ParseXPath("/play[0]").ok());      // positions are 1-based
  EXPECT_FALSE(ParseXPath("/play[99999999999]").ok());  // overflows int
  EXPECT_FALSE(ParseXPath("/play[x]").ok());
  EXPECT_FALSE(ParseXPath("/play//Unknown::a").ok());
  EXPECT_FALSE(ParseXPath("//").ok());
  EXPECT_FALSE(ParseXPath("/a/../b").ok());
}

TEST(XPathParser, ToStringRoundTripsStructure) {
  Result<XPathQuery> q = ParseXPath("/play//act[3]//Following::act");
  ASSERT_TRUE(q.ok());
  Result<XPathQuery> reparsed = ParseXPath(q->ToString());
  ASSERT_TRUE(reparsed.ok()) << q->ToString();
  EXPECT_EQ(reparsed->steps.size(), q->steps.size());
  for (std::size_t i = 0; i < q->steps.size(); ++i) {
    EXPECT_EQ(reparsed->steps[i].axis, q->steps[i].axis);
    EXPECT_EQ(reparsed->steps[i].name_test, q->steps[i].name_test);
    EXPECT_EQ(reparsed->steps[i].position, q->steps[i].position);
  }
}

// --- Evaluation ----------------------------------------------------------

/// Fixture evaluating queries on a small play through a chosen scheme.
class XPathEvalTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    PlayOptions options;
    options.acts = 3;
    options.scenes_per_act = 2;
    options.min_speeches_per_scene = 4;
    options.max_speeches_per_scene = 6;
    options.min_lines_per_speech = 1;
    options.max_lines_per_speech = 3;
    options.personae = 4;
    options.seed = 77;
    tree_ = std::make_unique<XmlTree>(GeneratePlay("test", options));
    table_ = std::make_unique<LabelTable>(*tree_);

    const std::string& which = GetParam();
    if (which == "interval") {
      auto interval = std::make_unique<IntervalScheme>();
      interval->LabelTree(*tree_);
      IntervalScheme* raw = interval.get();
      order_ = [raw](NodeId id) { return raw->low(id); };
      scheme_ = std::move(interval);
    } else if (which == "prefix-2") {
      auto prefix = std::make_unique<PrefixScheme>(PrefixVariant::kBinary);
      prefix->LabelTree(*tree_);
      // Prefix labels sort lexicographically in document order; rank via
      // the tree as the scheme's order proxy.
      order_ = [this](NodeId id) {
        return static_cast<std::uint64_t>(id);  // arena ids are preorder here
      };
      scheme_ = std::move(prefix);
    } else {
      auto prime = std::make_unique<OrderedPrimeScheme>();
      prime->LabelTree(*tree_);
      OrderedPrimeScheme* raw = prime.get();
      order_ = [raw](NodeId id) { return raw->OrderOf(id); };
      scheme_ = std::move(prime);
    }
    oracle_ = std::make_unique<SchemeOracle>(scheme_.get(), order_);
    ctx_.table = table_.get();
    ctx_.oracle = oracle_.get();
  }

  std::vector<NodeId> Run(const std::string& query) {
    XPathEvaluator evaluator(&ctx_);
    Result<std::vector<NodeId>> result = evaluator.Evaluate(query);
    EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    return result.ok() ? result.value() : std::vector<NodeId>{};
  }

  std::unique_ptr<XmlTree> tree_;
  std::unique_ptr<LabelTable> table_;
  std::unique_ptr<LabelingScheme> scheme_;
  OrderFn order_;
  std::unique_ptr<SchemeOracle> oracle_;
  QueryContext ctx_;
};

TEST_P(XPathEvalTest, DescendantScan) {
  EXPECT_EQ(Run("/play//act").size(), 3u);
  EXPECT_EQ(Run("/play//scene").size(), 6u);
  EXPECT_EQ(Run("//persona").size(), 4u);
  EXPECT_EQ(Run("//line").size(), tree_->FindAll("line").size());
}

TEST_P(XPathEvalTest, ChildAxisNarrowsToDirectChildren) {
  EXPECT_EQ(Run("/play/act").size(), 3u);
  EXPECT_EQ(Run("/play/scene").size(), 0u);  // scenes are grandchildren
  EXPECT_EQ(Run("/play/act/scene").size(), 6u);
  EXPECT_EQ(Run("/play/personae/persona").size(), 4u);
}

TEST_P(XPathEvalTest, PositionalPredicates) {
  std::vector<NodeId> second_act = Run("/play//act[2]");
  ASSERT_EQ(second_act.size(), 1u);
  EXPECT_EQ(second_act[0], tree_->FindAll("act")[1]);
  EXPECT_EQ(Run("/play//act[4]").size(), 0u);  // only 3 acts
  // scene[2] exists in each of the 3 acts.
  EXPECT_EQ(Run("/play//scene[2]").size(), 3u);
}

TEST_P(XPathEvalTest, FollowingAxis) {
  // Acts following act 2: act 3 only.
  std::vector<NodeId> result = Run("/play//act[2]//Following::act");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], tree_->FindAll("act")[2]);
  // Scenes following act 2: the scenes of act 3 (2 of them).
  EXPECT_EQ(Run("/play//act[2]//Following::scene").size(), 2u);
}

TEST_P(XPathEvalTest, PrecedingAxis) {
  std::vector<NodeId> result = Run("/play//act[2]//Preceding::act");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], tree_->FindAll("act")[0]);
  // Personae nodes precede every act.
  EXPECT_EQ(Run("/play//act[1]//Preceding::persona").size(), 4u);
}

TEST_P(XPathEvalTest, SiblingAxes) {
  std::vector<NodeId> acts = tree_->FindAll("act");
  std::vector<NodeId> following =
      Run("/play//act[1]//Following-sibling::act");
  EXPECT_EQ(following, (std::vector<NodeId>{acts[1], acts[2]}));
  std::vector<NodeId> preceding =
      Run("/play//act[3]//Preceding-sibling::act");
  EXPECT_EQ(preceding, (std::vector<NodeId>{acts[0], acts[1]}));
}

TEST_P(XPathEvalTest, ResultsAreInDocumentOrder) {
  std::vector<NodeId> speeches = Run("/play//speech");
  std::vector<NodeId> expected = tree_->FindAll("speech");
  EXPECT_EQ(speeches, expected);
}

TEST_P(XPathEvalTest, StarMatchesAllElements) {
  // Children of acts: per act one title + 2 scenes.
  EXPECT_EQ(Run("/play/act/*").size(), 9u);
}

TEST_P(XPathEvalTest, ReverseAxes) {
  // Parents of scenes are the acts; ancestors of lines include acts.
  EXPECT_EQ(Run("/play//scene//Parent::act").size(), 3u);
  EXPECT_EQ(Run("/play//line//Ancestor::act").size(), 3u);
  EXPECT_EQ(Run("/play//line//Ancestor::play").size(), 1u);
  // Ancestor of the root: nothing.
  EXPECT_EQ(Run("/play//Ancestor::play").size(), 0u);
  // Mixed chain: second act's scenes' parent is the second act itself.
  std::vector<NodeId> result = Run("/play//act[2]/scene//Parent::act");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], tree_->FindAll("act")[1]);
}

TEST_P(XPathEvalTest, AttributePredicateFiltersRows) {
  // Speakers carry a name attribute; pick one that occurs and query it.
  std::vector<NodeId> speakers = tree_->FindAll("speaker");
  ASSERT_FALSE(speakers.empty());
  std::string name = tree_->node(speakers[0]).attributes[0].second;
  std::size_t expected = 0;
  for (NodeId speaker : speakers) {
    if (tree_->node(speaker).attributes[0].second == name) ++expected;
  }
  std::vector<NodeId> result = Run("//speaker[@name='" + name + "']");
  EXPECT_EQ(result.size(), expected);
  for (NodeId id : result) {
    EXPECT_EQ(tree_->node(id).attributes[0].second, name);
  }
  EXPECT_EQ(Run("//speaker[@name='NOBODY-BY-THIS-NAME']").size(), 0u);
  EXPECT_EQ(Run("//line[@name='HAMLET']").size(), 0u);  // no such attribute
}

TEST_P(XPathEvalTest, RootStepMatchesRootItself) {
  std::vector<NodeId> result = Run("/play");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], tree_->root());
}

INSTANTIATE_TEST_SUITE_P(Schemes, XPathEvalTest,
                         ::testing::Values("interval", "prefix-2",
                                           "prime-ordered"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace primelabel
