#include <memory>

#include <gtest/gtest.h>

#include "core/ordered_prime_scheme.h"
#include "labeling/interval.h"
#include "store/label_table.h"
#include "store/plan.h"
#include "xml/parser.h"

namespace primelabel {
namespace {

// <r><a><b/><c/></a><a><b/></a><d/></r>
Result<XmlTree> TestDoc() {
  return ParseXml("<r><a><b/><c/></a><a><b/></a><d/></r>");
}

TEST(LabelTable, RowsAreInDocumentOrderByTag) {
  Result<XmlTree> doc = TestDoc();
  ASSERT_TRUE(doc.ok());
  LabelTable table(*doc);
  EXPECT_EQ(table.row_count(), 7u);
  EXPECT_EQ(table.Rows("a").size(), 2u);
  EXPECT_EQ(table.Rows("b").size(), 2u);
  EXPECT_EQ(table.Rows("zzz").size(), 0u);
  // Document order: first 'a' row precedes second.
  EXPECT_LT(table.Rows("a")[0], table.Rows("a")[1]);
}

TEST(LabelTable, ParentColumnMatchesTree) {
  Result<XmlTree> doc = TestDoc();
  ASSERT_TRUE(doc.ok());
  LabelTable table(*doc);
  for (NodeId row : table.AllRows()) {
    EXPECT_EQ(table.ParentOf(row), doc->parent(row));
  }
}

TEST(LabelTable, TextNodesAreNotRows) {
  Result<XmlTree> doc = ParseXml("<r><a>text</a></r>");
  ASSERT_TRUE(doc.ok());
  LabelTable table(*doc);
  EXPECT_EQ(table.row_count(), 2u);  // r and a only
}

TEST(LabelTable, TagsEnumeratesDistinctTags) {
  Result<XmlTree> doc = TestDoc();
  ASSERT_TRUE(doc.ok());
  LabelTable table(*doc);
  std::vector<std::string> tags = table.Tags();
  EXPECT_EQ(tags.size(), 5u);  // r, a, b, c, d
}

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<XmlTree> doc = TestDoc();
    ASSERT_TRUE(doc.ok());
    tree_ = std::make_unique<XmlTree>(std::move(doc.value()));
    table_ = std::make_unique<LabelTable>(*tree_);
    scheme_.LabelTree(*tree_);
    oracle_ = std::make_unique<SchemeOracle>(
        &scheme_, [this](NodeId id) { return scheme_.low(id); });
    ctx_.table = table_.get();
    ctx_.oracle = oracle_.get();
  }

  std::unique_ptr<XmlTree> tree_;
  std::unique_ptr<LabelTable> table_;
  IntervalScheme scheme_;
  std::unique_ptr<SchemeOracle> oracle_;
  QueryContext ctx_;
};

TEST_F(PlanTest, JoinDescendantsFindsAllUnderContext) {
  std::vector<NodeId> as = table_->Rows("a");
  std::vector<NodeId> bs = table_->Rows("b");
  std::vector<NodeId> result = JoinDescendants(ctx_, as, bs);
  EXPECT_EQ(result.size(), 2u);
  EXPECT_GT(ctx_.stats.label_tests, 0u);
  EXPECT_EQ(ctx_.stats.rows_scanned, bs.size());
}

TEST_F(PlanTest, JoinChildrenRespectsDirectParentage) {
  std::vector<NodeId> root = table_->Rows("r");
  EXPECT_EQ(JoinChildren(ctx_, root, table_->Rows("a")).size(), 2u);
  EXPECT_EQ(JoinChildren(ctx_, root, table_->Rows("b")).size(), 0u);
  EXPECT_EQ(JoinChildren(ctx_, root, table_->Rows("d")).size(), 1u);
}

TEST_F(PlanTest, SelectFollowingExcludesDescendantsAndPreceding) {
  std::vector<NodeId> first_a = {table_->Rows("a")[0]};
  // Following the first a: second a, its b, and d — but not the first a's
  // own children.
  std::vector<NodeId> all = table_->AllRows();
  std::vector<NodeId> following = SelectFollowing(ctx_, first_a, all);
  EXPECT_EQ(following.size(), 3u);
  for (NodeId id : following) {
    EXPECT_FALSE(tree_->IsAncestor(first_a[0], id));
    EXPECT_GT(scheme_.low(id), scheme_.low(first_a[0]));
  }
}

TEST_F(PlanTest, SelectPrecedingExcludesAncestors) {
  std::vector<NodeId> ds = table_->Rows("d");
  std::vector<NodeId> all = table_->AllRows();
  std::vector<NodeId> preceding = SelectPreceding(ctx_, ds, all);
  // Everything before d except its ancestor r: 2 a's, 2 b's, 1 c.
  EXPECT_EQ(preceding.size(), 5u);
  for (NodeId id : preceding) {
    EXPECT_FALSE(tree_->IsAncestor(id, ds[0]));
  }
}

TEST_F(PlanTest, SiblingAxes) {
  std::vector<NodeId> first_a = {table_->Rows("a")[0]};
  std::vector<NodeId> all = table_->AllRows();
  std::vector<NodeId> following = SelectFollowingSiblings(ctx_, first_a, all);
  // Siblings after the first a: the second a and d.
  EXPECT_EQ(following.size(), 2u);
  std::vector<NodeId> second_a = {table_->Rows("a")[1]};
  std::vector<NodeId> preceding = SelectPrecedingSiblings(ctx_, second_a, all);
  EXPECT_EQ(preceding.size(), 1u);
  EXPECT_EQ(preceding[0], first_a[0]);
}

TEST_F(PlanTest, PositionFilterSelectsNthPerParent) {
  std::vector<NodeId> bs = table_->Rows("b");
  // b is the 1st b-child in both of its parents.
  EXPECT_EQ(PositionFilter(ctx_, bs, 1).size(), 2u);
  EXPECT_EQ(PositionFilter(ctx_, bs, 2).size(), 0u);
  std::vector<NodeId> as = table_->Rows("a");
  std::vector<NodeId> second = PositionFilter(ctx_, as, 2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], as[1]);
}

TEST_F(PlanTest, SortByOrderSortsAndDeduplicates) {
  std::vector<NodeId> rows = table_->AllRows();
  std::vector<NodeId> shuffled = {rows[3], rows[0], rows[3], rows[1]};
  std::vector<NodeId> sorted = SortByOrder(ctx_, shuffled);
  EXPECT_EQ(sorted, (std::vector<NodeId>{rows[0], rows[1], rows[3]}));
}

TEST_F(PlanTest, StatsAccumulateAcrossOperators) {
  EvalStats before = ctx_.stats;
  JoinDescendants(ctx_, table_->Rows("r"), table_->AllRows());
  SelectFollowing(ctx_, table_->Rows("a"), table_->AllRows());
  EXPECT_GT(ctx_.stats.rows_scanned, before.rows_scanned);
  EXPECT_GT(ctx_.stats.label_tests, before.label_tests);
  EXPECT_GT(ctx_.stats.order_lookups, before.order_lookups);
}

TEST(PlanWithPrimeScheme, OrderLookupsGoThroughScTable) {
  Result<XmlTree> doc = TestDoc();
  ASSERT_TRUE(doc.ok());
  XmlTree tree = std::move(doc.value());
  LabelTable table(tree);
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  QueryContext ctx;
  ctx.table = &table;
  ctx.oracle = &scheme;
  std::vector<NodeId> first_a = {table.Rows("a")[0]};
  std::vector<NodeId> following =
      SelectFollowing(ctx, first_a, table.AllRows());
  EXPECT_EQ(following.size(), 3u);
}

}  // namespace
}  // namespace primelabel
