#include "corpus/labeled_document.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "primes/prime_source.h"
#include "store/catalog.h"

namespace primelabel {
namespace {

constexpr char kBib[] =
    "<bib>"
    "<book><title>A</title><author>X</author><author>Y</author></book>"
    "<book><title>B</title><author>Z</author></book>"
    "</bib>";

TEST(LabeledDocument, FromXmlAndQuery) {
  Result<LabeledDocument> doc = LabeledDocument::FromXml(kBib);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Result<std::vector<NodeId>> authors = doc->Query("//author");
  ASSERT_TRUE(authors.ok());
  EXPECT_EQ(authors->size(), 3u);
  Result<std::vector<NodeId>> second = doc->Query("//book[2]/title");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 1u);
}

TEST(LabeledDocument, RejectsBadXmlAndBadQueries) {
  EXPECT_FALSE(LabeledDocument::FromXml("<broken").ok());
  Result<LabeledDocument> doc = LabeledDocument::FromXml(kBib);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->Query("???").ok());
}

TEST(LabeledDocument, PrimeStreamRoomIsCheckedBeforeLabelingAndInserts) {
  // Labeling draws one prime per node below the root, so FromXml (and so
  // DurableDocumentStore::Create) refuses a tree of more than kLength + 1
  // nodes, typed, before labeling it. Checked on the count: a tree that
  // size would take hundreds of gigabytes to build.
  EXPECT_TRUE(LabeledDocument::CheckLabelRoom(0).ok());
  EXPECT_TRUE(LabeledDocument::CheckLabelRoom(1).ok());
  EXPECT_TRUE(LabeledDocument::CheckLabelRoom(PrimeSource::kLength + 1).ok());
  EXPECT_EQ(LabeledDocument::CheckLabelRoom(PrimeSource::kLength + 2).code(),
            StatusCode::kResourceExhausted);
  // An insert needs one prime plus one replacement self-label per node
  // whose shifted order reaches its modulus, which takes a member at order
  // modulus - 1: a group's worth for every SC record holding one. Its room
  // ends that many primes before the stream does. Checked on a pinned
  // cursor; drawing there would sieve the whole table.
  Result<LabeledDocument> doc = LabeledDocument::FromXml(kBib);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->CheckInsertRoom(doc->prime_cursor()).ok());
  // Labeling gave the k-th node after the root order k, and groups of
  // five consecutive nodes share a record.
  const std::size_t group = 5;
  ASSERT_EQ(doc->scheme().sc_table().group_size(), static_cast<int>(group));
  std::vector<bool> at_slack_zero;
  std::uint64_t order = 0;
  doc->tree().Preorder([&](NodeId id, int depth) {
    if (depth == 0) return;
    ++order;
    if ((order - 1) % group == 0) at_slack_zero.push_back(false);
    if (doc->scheme().structure().self_label(id) == order + 1) {
      at_slack_zero.back() = true;
    }
  });
  const std::size_t records_at_slack_zero = static_cast<std::size_t>(
      std::count(at_slack_zero.begin(), at_slack_zero.end(), true));
  ASSERT_GT(records_at_slack_zero, 0u);  // self 2 holds order 1
  const std::size_t draws = 1 + group * records_at_slack_zero;
  ASSERT_LT(draws, doc->scheme().sc_table().size());
  EXPECT_TRUE(doc->CheckInsertRoom(PrimeSource::kLength - draws).ok());
  const Status refused =
      doc->CheckInsertRoom(PrimeSource::kLength - draws + 1);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.message().find("exhausted"), std::string::npos)
      << refused.ToString();
}

TEST(LabeledDocument, InsertUpdatesAnswersAndReportsCost) {
  Result<LabeledDocument> parsed = LabeledDocument::FromXml(kBib);
  ASSERT_TRUE(parsed.ok());
  LabeledDocument doc = std::move(parsed.value());
  std::vector<NodeId> authors = doc.Query("//author").value();
  ASSERT_EQ(authors.size(), 3u);
  // New second author of the first book.
  NodeId fresh = doc.InsertBefore(authors[1], "author");
  EXPECT_GE(doc.last_update_cost(), 2);  // node + >=1 SC record
  std::vector<NodeId> after = doc.Query("//author").value();
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after[1], fresh);  // document order includes the new node
  // Positional query sees the shift.
  std::vector<NodeId> second = doc.Query("//book[1]/author[2]").value();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], fresh);
}

TEST(LabeledDocument, AppendWrapAndDelete) {
  LabeledDocument doc = LabeledDocument::FromTree([] {
    XmlTree tree;
    NodeId root = tree.CreateRoot("r");
    tree.AppendChild(root, "a");
    tree.AppendChild(root, "b");
    return tree;
  }());
  NodeId a = doc.Query("//a").value()[0];
  NodeId child = doc.AppendChild(a, "c");
  EXPECT_EQ(doc.Query("//a/c").value().size(), 1u);
  NodeId wrapper = doc.Wrap(child, "w");
  EXPECT_EQ(doc.Query("//a/w/c").value().size(), 1u);
  EXPECT_GT(doc.last_update_cost(), 0);
  doc.Delete(wrapper);
  EXPECT_TRUE(doc.Query("//c").value().empty());
  EXPECT_EQ(doc.Query("//b").value().size(), 1u);
}

TEST(LabeledDocument, SaveProducesLoadableCatalog) {
  Result<LabeledDocument> doc = LabeledDocument::FromXml(kBib);
  ASSERT_TRUE(doc.ok());
  std::string path = std::string(::testing::TempDir()) + "/facade.plc";
  ASSERT_TRUE(doc->Save(path).ok());
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows.size(), doc->tree().node_count());
  std::remove(path.c_str());
}

TEST(LabeledDocument, ManyUpdatesStayConsistent) {
  LabeledDocument doc = LabeledDocument::FromTree([] {
    XmlTree tree;
    NodeId root = tree.CreateRoot("list");
    tree.AppendChild(root, "item");
    return tree;
  }());
  // Interleave prepends and appends; positional queries must stay exact.
  for (int i = 0; i < 30; ++i) {
    std::vector<NodeId> items = doc.Query("//item").value();
    if (i % 2 == 0) {
      doc.InsertBefore(items.front(), "item");
    } else {
      doc.InsertAfter(items.back(), "item");
    }
  }
  std::vector<NodeId> items = doc.Query("//item").value();
  ASSERT_EQ(items.size(), 31u);
  // Document order from the SC table matches tree order.
  std::vector<NodeId> expected = doc.tree().FindAll("item");
  EXPECT_EQ(items, expected);
}

}  // namespace
}  // namespace primelabel
