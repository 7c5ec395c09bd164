// Planner suite: plan-compiler lowering shapes, planned-vs-walked
// differential equivalence across scheme/catalog (heap and arena)
// backends and through every uncached entry point (LabeledDocument,
// Snapshot sealed and live, DocumentStore), the order-window operators
// (against the nested-loop join and the tree walk on random and mutated
// trees, and their probe counts on the corpus), plan/result cache units,
// service wiring (result-cache hits, checkpoint invalidation, the EXPLAIN
// wire verb and STATS counters), and concurrent cached execution
// (PlannerConcurrent runs under ThreadSanitizer via the check.sh tsan
// leg).

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/document_store.h"
#include "corpus/labeled_document.h"
#include "durability/vfs.h"
#include "durability/wal.h"
#include "labeling/interval.h"
#include "planner/query_planner.h"
#include "service/query_service.h"
#include "service/wire.h"
#include "store/catalog.h"
#include "store/plan.h"
#include "view_test_support.h"
#include "xml/datasets.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"
#include "xpath/evaluator.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace primelabel {
namespace {

namespace fs = std::filesystem;

/// Unique per test process: ctest runs tests from one binary
/// concurrently, and a shared literal name races SetUp/TearDown.
std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/p" +
         std::to_string(::getpid()) + "-" + name;
}

XmlTree DiffPlay() {
  PlayOptions options;
  options.acts = 3;
  options.scenes_per_act = 2;
  options.min_speeches_per_scene = 2;
  options.max_speeches_per_scene = 4;
  options.seed = 29;
  return GeneratePlay("diff", options);
}

// --- Compiler lowering shapes --------------------------------------------

std::vector<PlanOpKind> Kinds(const PhysicalPlan& plan) {
  std::vector<PlanOpKind> kinds;
  for (const PlanOp& op : plan.ops) kinds.push_back(op.kind);
  return kinds;
}

TEST(PlannerCompile, RootedDescendantFirstStepIsPureScan) {
  Result<PhysicalPlan> plan = PlanCompiler::Compile("/play//act");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Kinds(plan.value()),
            (std::vector<PlanOpKind>{PlanOpKind::kTagScan, PlanOpKind::kTagScan,
                                     PlanOpKind::kDescendantJoin}));
  EXPECT_EQ(plan->ops[2].input, 0);
  EXPECT_EQ(plan->ops[2].candidates, 1);
  EXPECT_EQ(plan->query, "//play//act");
  EXPECT_NE(plan->ToString().find("TagScan(play)"), std::string::npos);
  EXPECT_NE(plan->ToString().find("DescendantJoin(#0,#1)"), std::string::npos);
}

TEST(PlannerCompile, SortEmittedOnlyAfterPositionSelect) {
  // Joins preserve candidate (document) order, so a chain of joins needs
  // no sort at all...
  Result<PhysicalPlan> joins = PlanCompiler::Compile("/play//act//speaker");
  ASSERT_TRUE(joins.ok());
  for (const PlanOp& op : joins->ops) {
    EXPECT_NE(op.kind, PlanOpKind::kOrderSort);
  }
  // ...while a position predicate (group-major output) is resorted
  // immediately, and only there.
  Result<PhysicalPlan> position = PlanCompiler::Compile("/play//act[2]//line");
  ASSERT_TRUE(position.ok());
  int sorts = 0;
  for (std::size_t i = 0; i < position->ops.size(); ++i) {
    if (position->ops[i].kind != PlanOpKind::kOrderSort) continue;
    ++sorts;
    ASSERT_GT(i, 0u);
    EXPECT_EQ(position->ops[i - 1].kind, PlanOpKind::kPositionSelect);
  }
  EXPECT_EQ(sorts, 1);
}

TEST(PlannerCompile, PredicatesSitAboveWindowsAndBelowScanJoins) {
  // A descendant window reads only its run, so the filter reads the
  // window's output...
  Result<PhysicalPlan> window =
      PlanCompiler::Compile("/play//speaker[@name='HAMLET']");
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(Kinds(window.value()),
            (std::vector<PlanOpKind>{
                PlanOpKind::kTagScan, PlanOpKind::kTagScan,
                PlanOpKind::kDescendantJoin, PlanOpKind::kAttributeFilter}));
  EXPECT_EQ(window->ops[2].candidates, 1);  // the join reads the raw scan
  EXPECT_EQ(window->ops[3].input, 2);       // and the filter its output
  // ...while the ancestor join tests every candidate, so the filter
  // screens the scan before it.
  Result<PhysicalPlan> scan =
      PlanCompiler::Compile("//line//Ancestor::speech[@id='x']");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(Kinds(scan.value()),
            (std::vector<PlanOpKind>{
                PlanOpKind::kTagScan, PlanOpKind::kTagScan,
                PlanOpKind::kAttributeFilter, PlanOpKind::kAncestorJoin}));
  EXPECT_EQ(scan->ops[2].input, 1);       // filters the speech scan...
  EXPECT_EQ(scan->ops[3].candidates, 2);  // ...and the join consumes it
}

TEST(PlannerCompile, ExplicitAxisFirstStepJoinsEmptyContext) {
  Result<PhysicalPlan> plan = PlanCompiler::Compile("//Following::act");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->ops.size(), 2u);
  EXPECT_EQ(plan->ops[1].kind, PlanOpKind::kFollowingFilter);
  EXPECT_EQ(plan->ops[1].input, -1);
  EXPECT_NE(plan->ToString().find("empty"), std::string::npos);
}

TEST(PlannerCompile, NormalizeCanonicalizesSpellings) {
  // A plan's `query` is the canonical text the plan cache keys on.
  Result<PhysicalPlan> a = PlanCompiler::Compile("/play/act");
  Result<PhysicalPlan> b = PlanCompiler::Compile("//play/act");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->query, b->query);
  EXPECT_EQ(a->query, "//play/act");
}

TEST(PlannerCompile, ParseErrorsPropagate) {
  EXPECT_FALSE(PlanCompiler::Compile("act[").ok());
  EXPECT_FALSE(PlanCompiler::Compile("").ok());
}

// --- Planned-vs-walked differential equivalence --------------------------

/// The paper's Fig. 15 query set, as benched in bench_fig15_queries.
constexpr const char* kFigure15Battery[] = {
    "/play//act[4]",
    "/play//act[3]//Following::act",
    "/play//act//speaker",
    "/act[5]//Following::speech",
    "/speech[4]//Preceding::line",
    "/play//act[3]//line",
    "/play//speech[1]//Following-sibling::speech[3]",
    "/play//speech",
    "/play//line"};

/// 60 seeded random step combinations over every axis, with attribute
/// and position predicates.
std::vector<std::string> RandomizedQueries() {
  const char* tags[] = {"play", "act",     "scene", "speech",
                        "speaker", "line", "title", "*"};
  const char* axes[] = {"Following",         "Preceding", "Following-sibling",
                        "Preceding-sibling", "Parent",    "Ancestor"};
  const char* names[] = {"HAMLET", "OPHELIA", "NOBODY"};
  std::mt19937 rng(811);
  std::vector<std::string> queries;
  for (int i = 0; i < 60; ++i) {
    const int steps = 1 + static_cast<int>(rng() % 3);
    std::string query;
    for (int s = 0; s < steps; ++s) {
      if (rng() % 3 == 0) {
        query += "//";
        query += axes[rng() % 6];
        query += "::";
      } else {
        query += rng() % 2 == 0 ? "//" : "/";
      }
      query += tags[rng() % 8];
      if (rng() % 4 == 0) {
        query += "[@name='";
        query += names[rng() % 3];
        query += "']";
      }
      if (rng() % 3 == 0) {
        query += '[';
        query += std::to_string(1 + rng() % 4);
        query += ']';
      }
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

/// The Fig. 15 battery followed by the randomized queries.
std::vector<std::string> DifferentialQueries() {
  std::vector<std::string> queries(std::begin(kFigure15Battery),
                                   std::end(kFigure15Battery));
  for (std::string& query : RandomizedQueries()) {
    queries.push_back(std::move(query));
  }
  return queries;
}

/// One LabeledDocument as the planner sees it: the heap scheme itself, or
/// the document saved and mmapped back as a catalog, whose NodeIds are
/// preorder rows.
class DocumentBackend {
 public:
  DocumentBackend(const LabeledDocument& doc, bool mapped) : tree_(doc.tree()) {
    if (!mapped) {
      ctx_.table = &doc.label_table();
      ctx_.oracle = &doc.scheme();
      return;
    }
    path_ = TempPath("planner-backend.plc");
    EXPECT_TRUE(SaveCatalog(path_, doc).ok());
    Result<LoadedCatalog> loaded = OpenCatalogMapped(DefaultVfs(), path_);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    catalog_ = std::make_unique<LoadedCatalog>(std::move(loaded.value()));
    table_ = std::make_unique<LabelTable>(*catalog_);
    ctx_.table = table_.get();
    ctx_.oracle = catalog_.get();
    row_of_.assign(tree_.arena_size(), kInvalidNodeId);
    NodeId row = 0;
    tree_.Preorder([&](NodeId id, int) {
      row_of_[static_cast<std::size_t>(id)] = row++;
    });
  }
  ~DocumentBackend() {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  const QueryContext& ctx() const { return ctx_; }

  /// Requires the planner to return EvaluateXPathOnTree's answer.
  void ExpectMatchesTree(const XPathQuery& query) const {
    std::vector<NodeId> expected = EvaluateXPathOnTree(tree_, query);
    if (!row_of_.empty()) {
      for (NodeId& id : expected) id = row_of_[static_cast<std::size_t>(id)];
    }
    EXPECT_EQ(ExecutePlan(PlanCompiler::Compile(query), ctx_), expected)
        << query.ToString();
  }

 private:
  const XmlTree& tree_;
  std::string path_;
  std::unique_ptr<LoadedCatalog> catalog_;
  std::unique_ptr<LabelTable> table_;
  std::vector<NodeId> row_of_;
  QueryContext ctx_;
};

/// The differential battery's backends: the live prime scheme or a
/// zero-copy mmap arena catalog — the planner and evaluator must agree
/// bit-for-bit on both.
class PlannerDifferentialTest : public ::testing::TestWithParam<const char*> {
 protected:
  PlannerDifferentialTest()
      : doc_(LabeledDocument::FromTree(DiffPlay())),
        backend_(doc_, std::string(GetParam()) == "catalog-arena") {}

  const QueryContext& ctx() const { return backend_.ctx(); }

  /// Runs `query` through both engines and requires identical node sets
  /// in identical document order.
  void ExpectSame(const std::string& query) {
    XPathEvaluator evaluator(&ctx());
    Result<std::vector<NodeId>> walked = evaluator.Evaluate(query);
    ASSERT_TRUE(walked.ok()) << query << ": " << walked.status().ToString();
    Result<PhysicalPlan> plan = PlanCompiler::Compile(query);
    ASSERT_TRUE(plan.ok()) << query << ": " << plan.status().ToString();
    std::vector<NodeId> planned = ExecutePlan(plan.value(), ctx());
    EXPECT_EQ(planned, walked.value()) << query;
  }

  const LabeledDocument doc_;
  const DocumentBackend backend_;
};

TEST_P(PlannerDifferentialTest, Figure15Battery) {
  for (const char* query : kFigure15Battery) ExpectSame(query);
}

TEST_P(PlannerDifferentialTest, AxisAndPredicateCoverage) {
  for (const char* query :
       {"/play/act/scene", "/play//line//Parent::speech",
        "//speaker//Ancestor::act", "//speech//Preceding-sibling::speaker",
        "//speaker[@name='HAMLET']", "/play//speech[@nonexistent='x']",
        "/play//*[3]", "//act//*", "//Following::act", "/play//title[1]",
        "/play//scene[2]//speech[1]"}) {
    ExpectSame(query);
  }
  // A text() predicate against real character data (lines carry text).
  const std::vector<NodeId>& lines = ctx().table->Rows("line");
  ASSERT_FALSE(lines.empty());
  const std::string* text = ctx().table->TextOf(lines[0]);
  if (text != nullptr && text->find('\'') == std::string::npos) {
    ExpectSame("/play//line[text()='" + *text + "']");
  }
}

TEST_P(PlannerDifferentialTest, RandomizedStepCombinations) {
  for (const std::string& query : RandomizedQueries()) ExpectSame(query);
}

INSTANTIATE_TEST_SUITE_P(Backends, PlannerDifferentialTest,
                         ::testing::Values("scheme", "catalog-arena"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Entry points outside the service run the planner --------------------

/// The walking evaluator over (table, oracle): the reference every
/// planner entry point is held to.
std::vector<NodeId> Walk(const LabelTable& table,
                         const StructureOracle& oracle,
                         const std::string& query) {
  QueryContext ctx;
  ctx.table = &table;
  ctx.oracle = &oracle;
  Result<std::vector<NodeId>> walked = XPathEvaluator(&ctx).Evaluate(query);
  EXPECT_TRUE(walked.ok()) << query << ": " << walked.status().ToString();
  return walked.ok() ? walked.value() : std::vector<NodeId>();
}

TEST(PlannerEntryPoints, LabeledDocumentQueryMatchesEvaluator) {
  LabeledDocument doc = LabeledDocument::FromTree(DiffPlay());
  for (const std::string& query : DifferentialQueries()) {
    Result<std::vector<NodeId>> planned = doc.Query(query);
    ASSERT_TRUE(planned.ok()) << query;
    EXPECT_EQ(planned.value(), Walk(doc.label_table(), doc.scheme(), query))
        << query;
  }
}

/// The non-root elements of `tree` in document order.
std::vector<NodeId> ElementsInPreorder(const XmlTree& tree) {
  std::vector<NodeId> out;
  tree.Preorder([&](NodeId id, int depth) {
    if (depth > 0 && tree.IsElement(id)) out.push_back(id);
  });
  return out;
}

TEST(PlannerEntryPoints, SnapshotQueryMatchesEvaluatorSealedAndLive) {
  // Every writer op, across a delta and a full checkpoint, replayed on a
  // plain XmlTree model: at each pinned point the snapshot's planner,
  // its walker and its DESC/ANC kernels must give the tree walk's answer
  // over the model. Snapshot ids are the point's preorder ranks.
  const std::string dir = TempPath("planner-entry-snapshot");
  std::error_code ec;
  fs::remove_all(dir, ec);
  const std::string xml = SerializeXml(DiffPlay());
  Result<XmlTree> parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok());
  XmlTree model = std::move(parsed.value());
  MapCountingVfs vfs;
  DurableDocumentStore::Options options;
  options.vfs = &vfs;
  options.max_delta_chain = 1;  // delta first, then a full snapshot
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, xml, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto expect_matches_model = [&](const Snapshot& snap, const char* point) {
    const std::vector<NodeId> rank_of = model.PreorderRanks();
    const std::vector<NodeId> by_rank = model.PreorderNodes();
    const std::size_t n = by_rank.size();
    ASSERT_EQ(snap.node_count(), n) << point;
    const XmlTree& served = snap.document().tree();
    ASSERT_EQ(served.node_count(), n) << point;
    for (std::size_t r = 0; r < n; ++r) {
      const NodeId m = by_rank[r];
      const NodeId mp = model.parent(m);
      ASSERT_EQ(served.name(static_cast<NodeId>(r)), model.name(m)) << point;
      ASSERT_EQ(served.parent(static_cast<NodeId>(r)),
                mp == kInvalidNodeId ? kInvalidNodeId
                                     : rank_of[static_cast<std::size_t>(mp)])
          << point << " rank " << r;
    }
    for (const std::string& query : DifferentialQueries()) {
      Result<XPathQuery> xpath = ParseXPath(query);
      ASSERT_TRUE(xpath.ok()) << query;
      std::vector<NodeId> expected = EvaluateXPathOnTree(model, xpath.value());
      for (NodeId& id : expected) id = rank_of[static_cast<std::size_t>(id)];
      Result<std::vector<NodeId>> planned = snap.Query(query);
      ASSERT_TRUE(planned.ok()) << point << ' ' << query;
      EXPECT_EQ(planned.value(), expected) << point << ' ' << query;
      EXPECT_EQ(Walk(snap.view()->label_table(), snap.oracle(), query),
                expected)
          << point << ' ' << query;
    }
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    for (NodeId anchor : all) {
      std::vector<NodeId> below, above, desc, anc;
      const NodeId m = by_rank[static_cast<std::size_t>(anchor)];
      for (NodeId c : all) {
        const NodeId mc = by_rank[static_cast<std::size_t>(c)];
        if (OnParentChain(model, m, mc)) below.push_back(c);
        if (OnParentChain(model, mc, m)) above.push_back(c);
      }
      snap.oracle().SelectDescendants(anchor, all, &desc);
      snap.oracle().SelectAncestors(anchor, all, &anc);
      EXPECT_EQ(desc, below) << point << " DESC " << anchor;
      EXPECT_EQ(anc, above) << point << " ANC " << anchor;
    }
  };
  auto open_and_check = [&](const char* point,
                            const std::vector<std::string>& maps) {
    Result<Snapshot> snap = store->OpenSnapshot();
    ASSERT_TRUE(snap.ok()) << point << ": " << snap.status().ToString();
    // Zero copy where the disk has the image: only a sealed point maps
    // its snapshot.
    EXPECT_EQ(vfs.TakeMapped(), maps) << point;
    expect_matches_model(*snap, point);
  };
  // One round of all five writer ops, on the store and on the model.
  std::mt19937 rng(4242);
  auto write_round = [&] {
    for (int op = 0; op < 5; ++op) {
      const std::vector<NodeId> stored =
          ElementsInPreorder(store->document().tree());
      const std::vector<NodeId> modeled = ElementsInPreorder(model);
      ASSERT_EQ(stored.size(), modeled.size());
      const std::size_t k = rng() % stored.size();
      const NodeId s = stored[k];
      const NodeId m = modeled[k];
      switch (op) {
        case 0:
          ASSERT_TRUE(store->AppendChild(s, "line").ok());
          model.AppendChild(m, "line");
          break;
        case 1:
          ASSERT_TRUE(store->InsertBefore(s, "speech").ok());
          model.InsertBefore(m, "speech");
          break;
        case 2:
          ASSERT_TRUE(store->InsertAfter(s, "act").ok());
          model.InsertAfter(m, "act");
          break;
        case 3:
          ASSERT_TRUE(store->Wrap(s, "scene").ok());
          model.WrapNode(m, "scene");
          break;
        case 4:
          ASSERT_TRUE(store->Delete(s).ok());
          model.Detach(m);
          break;
      }
    }
  };

  open_and_check("sealed epoch 0", {DurableDocumentStore::SnapshotPath(dir, 0)});
  write_round();
  open_and_check("journaled epoch 0", {});

  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(fs::exists(DurableDocumentStore::DeltaPath(dir, 1)));
  ASSERT_EQ(store->durable_journal_bytes(), kWalHeaderBytes);
  open_and_check("empty-journal delta epoch 1", {});
  write_round();
  open_and_check("journaled delta epoch 1", {});

  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(fs::exists(DurableDocumentStore::SnapshotPath(dir, 2)));
  open_and_check("sealed epoch 2", {DurableDocumentStore::SnapshotPath(dir, 2)});
  write_round();
  open_and_check("journaled epoch 2", {});
  fs::remove_all(dir, ec);
}

TEST(PlannerEntryPoints, DocumentStoreQueryMatchesEvaluator) {
  DocumentStore store;
  for (int i = 0; i < 3; ++i) {
    PlayOptions options;
    options.acts = 3;
    options.scenes_per_act = 2;
    options.min_speeches_per_scene = 2;
    options.max_speeches_per_scene = 4;
    options.seed = 29 + static_cast<std::uint64_t>(i);
    store.AddDocument("play-" + std::to_string(i),
                      GeneratePlay("diff", options));
  }
  for (const std::string& query : DifferentialQueries()) {
    Result<DocumentStore::QueryResult> planned = store.Query(query);
    ASSERT_TRUE(planned.ok()) << query;
    std::vector<DocumentStore::Hit> walked;
    for (std::size_t d = 0; d < store.document_count(); ++d) {
      const auto doc = static_cast<DocumentStore::DocId>(d);
      const LabelTable table(store.document(doc));
      for (NodeId node : Walk(table, store.scheme(doc), query)) {
        walked.push_back({doc, node});
      }
    }
    EXPECT_EQ(planned->hits, walked) << query;
  }
}

// --- Order windows ---------------------------------------------------------

/// Runs `//anchor_tag//candidate_tag` through the planner: a scan of the
/// anchor tag feeding the descendant window over the candidate tag list,
/// the same inputs JoinDescendants gets from the two tag lists.
std::vector<NodeId> WindowJoin(const QueryContext& ctx,
                               const std::string& anchor_tag,
                               const std::string& candidate_tag) {
  Result<PhysicalPlan> plan =
      PlanCompiler::Compile("//" + anchor_tag + "//" + candidate_tag);
  EXPECT_TRUE(plan.ok());
  return plan.ok() ? ExecutePlan(plan.value(), ctx) : std::vector<NodeId>();
}

/// An interval-labeled tree as a (table, oracle) pair; interval starts
/// supply OrderOf.
struct IntervalBackend {
  explicit IntervalBackend(XmlTree source)
      : tree(std::move(source)),
        table(tree),
        oracle(&scheme, [this](NodeId id) { return scheme.low(id); }) {
    scheme.LabelTree(tree);
    ctx.table = &table;
    ctx.oracle = &oracle;
  }

  XmlTree tree;
  LabelTable table;
  IntervalScheme scheme;
  SchemeOracle oracle;
  QueryContext ctx;
};

TEST(PlannerWindowJoin, MatchesNestedLoopOnSmallDocument) {
  Result<XmlTree> tree = ParseXml("<r><a><b/><c/></a><a><b/></a><d/></r>");
  ASSERT_TRUE(tree.ok());
  IntervalBackend backend(std::move(tree.value()));
  for (const char* anchor_tag : {"r", "a", "b", "d"}) {
    for (const char* candidate_tag : {"a", "b", "c", "d"}) {
      EXPECT_EQ(WindowJoin(backend.ctx, anchor_tag, candidate_tag),
                JoinDescendants(backend.ctx, backend.table.Rows(anchor_tag),
                                backend.table.Rows(candidate_tag)))
          << anchor_tag << " -> " << candidate_tag;
    }
  }
}

TEST(PlannerWindowJoin, MatchesNestedLoopOnRandomTrees) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomTreeOptions options;
    options.node_count = 400;
    options.max_depth = 7;
    options.max_fanout = 6;
    options.seed = seed;
    IntervalBackend backend(GenerateRandomTree(options));
    for (const std::string& anchor_tag : backend.table.Tags()) {
      for (const std::string& candidate_tag : backend.table.Tags()) {
        ASSERT_EQ(WindowJoin(backend.ctx, anchor_tag, candidate_tag),
                  JoinDescendants(backend.ctx, backend.table.Rows(anchor_tag),
                                  backend.table.Rows(candidate_tag)))
            << seed << " " << anchor_tag << " -> " << candidate_tag;
      }
    }
  }
}

TEST(PlannerWindowJoin, UsesFewerLabelTestsThanNestedLoop) {
  RandomTreeOptions options;
  options.node_count = 2000;
  options.max_depth = 6;
  options.max_fanout = 10;
  options.seed = 9;
  IntervalBackend backend(GenerateRandomTree(options));
  const std::vector<NodeId>& anchors = backend.table.Rows("a");
  ASSERT_GT(anchors.size(), 10u);
  QueryContext nested_ctx = backend.ctx;
  JoinDescendants(nested_ctx, anchors, backend.table.AllRows());
  QueryContext window_ctx = backend.ctx;
  WindowJoin(window_ctx, "a", "*");
  EXPECT_LT(window_ctx.stats.label_tests, nested_ctx.stats.label_tests / 2);
}

/// A random 1-4 step query over all eight axes, tags a-f and *, with
/// positions. Random trees repeat their six tags at every depth, so
/// same-tag anchors nest (//a//a, //*/b).
XPathQuery RandomWindowQuery(std::mt19937& rng) {
  const char* tags[] = {"a", "b", "c", "d", "e", "f", "*"};
  const XPathAxis axes[] = {
      XPathAxis::kChild,     XPathAxis::kDescendant,
      XPathAxis::kFollowing, XPathAxis::kPreceding,
      XPathAxis::kFollowingSibling, XPathAxis::kPrecedingSibling,
      XPathAxis::kParent,    XPathAxis::kAncestor};
  XPathQuery query;
  const int steps = 1 + static_cast<int>(rng() % 4);
  for (int s = 0; s < steps; ++s) {
    XPathStep step;
    // Mostly a rooted first step; now and then an empty-context one.
    step.axis = s == 0 && rng() % 8 != 0 ? XPathAxis::kDescendant
                                         : axes[rng() % 8];
    step.name_test = tags[rng() % 7];
    if (rng() % 3 == 0) step.position = 1 + static_cast<int>(rng() % 3);
    query.steps.push_back(std::move(step));
  }
  return query;
}

/// The nine xpath_cold shapes, Table 2's Q1-Q9 anchored in one play, as
/// MakeXpath in wirebench/workload.cc builds them.
std::string CorpusShape(int shape, int play, std::mt19937& rng) {
  const char* speakers[] = {"HAMLET", "HORATIO", "GHOST", "OPHELIA",
                            "POLONIUS"};
  auto pick = [&rng](int lo, int hi) {
    return std::to_string(lo + static_cast<int>(rng() % (hi - lo + 1)));
  };
  const std::string p = "/plays/play[" + std::to_string(play) + "]";
  const std::string act = pick(1, 5);
  const std::string scene_path =
      p + "/act[" + act + "]/scene[" + pick(1, 4) + "]";
  const std::string speech = pick(1, 40);
  switch (shape) {
    case 0:
      return p + "/act[" + act + "]//speech[" + speech + "]";
    case 1:
      return scene_path + "//Following::act";
    case 2:
      return p + "/act[" + act + "]//speaker[@name='" + speakers[rng() % 5] +
             "']";
    case 3:
      return scene_path + "//Following::speech";
    case 4:
      return scene_path + "/speech[" + speech + "]//Preceding::line";
    case 5:
      return p + "//act[" + act + "]//scene[" + pick(1, 4) + "]//line";
    case 6:
      return scene_path + "/speech[" + speech +
             "]//Following-sibling::speech[" + pick(1, 8) + "]";
    case 7:
      return scene_path + "//speech";
    default:
      return scene_path + "//line";
  }
}

/// The window suites, on the heap scheme and on the mapped catalog.
class PlannerWindowTest : public ::testing::TestWithParam<const char*> {
 protected:
  bool mapped() const { return std::string(GetParam()) == "catalog-arena"; }
};

TEST_P(PlannerWindowTest, RandomTreesMatchTreeWalk) {
  std::mt19937 rng(1407);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomTreeOptions options;
    options.node_count = 100 + 150 * seed;
    options.max_depth = 5 + static_cast<int>(seed % 3);
    options.max_fanout = 4 + static_cast<int>(seed % 4);
    options.seed = seed;
    const LabeledDocument doc =
        LabeledDocument::FromTree(GenerateRandomTree(options));
    const DocumentBackend backend(doc, mapped());
    for (int q = 0; q < 40; ++q) {
      backend.ExpectMatchesTree(RandomWindowQuery(rng));
    }
  }
}

TEST_P(PlannerWindowTest, MutatedDocumentsMatchTreeWalk) {
  // Inserted nodes take fresh NodeIds, so ids stop following document
  // order: a window must compare order numbers, never ids.
  std::mt19937 rng(5011);
  const char* tags[] = {"a", "b", "c", "d", "e", "f"};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomTreeOptions options;
    options.node_count = 150 * seed;
    options.max_depth = 6;
    options.max_fanout = 5;
    options.seed = 40 + seed;
    LabeledDocument doc =
        LabeledDocument::FromTree(GenerateRandomTree(options));
    for (int round = 0; round < 3; ++round) {
      for (int m = 0; m < 20; ++m) {
        const std::vector<NodeId> nodes = doc.tree().PreorderNodes();
        const NodeId target = nodes[1 + rng() % (nodes.size() - 1)];
        const char* tag = tags[rng() % 6];
        switch (rng() % 4) {
          case 0:
            doc.InsertBefore(target, tag);
            break;
          case 1:
            doc.InsertAfter(target, tag);
            break;
          case 2:
            doc.AppendChild(target, tag);
            break;
          default:
            doc.Wrap(target, tag);
            break;
        }
      }
      const DocumentBackend backend(doc, mapped());
      for (int q = 0; q < 30; ++q) {
        backend.ExpectMatchesTree(RandomWindowQuery(rng));
      }
    }
  }
}

TEST_P(PlannerWindowTest, CorpusShapesProbeNearTheirOutput) {
  // Every join and filter makes at most a fixed number of probes beyond
  // the rows it returns; a scan over the tag list makes thousands.
  const LabeledDocument doc =
      LabeledDocument::FromTree(GenerateShakespeareCorpus(2));
  const DocumentBackend backend(doc, mapped());
  std::mt19937 rng(7);
  for (int shape = 0; shape < 9; ++shape) {
    for (int instance = 0; instance < 16; ++instance) {
      const std::string query = CorpusShape(shape, 1 + instance % 2, rng);
      Result<PhysicalPlan> plan = PlanCompiler::Compile(query);
      ASSERT_TRUE(plan.ok()) << query;
      PlanProfile profile;
      const std::vector<NodeId> planned =
          ExecutePlan(plan.value(), backend.ctx(), &profile);
      EXPECT_EQ(planned,
                XPathEvaluator(&backend.ctx()).Evaluate(query).value())
          << query;
      for (std::size_t i = 0; i < plan->ops.size(); ++i) {
        const PlanOpKind kind = plan->ops[i].kind;
        if (kind == PlanOpKind::kTagScan ||
            kind == PlanOpKind::kPositionSelect ||
            kind == PlanOpKind::kOrderSort) {
          continue;
        }
        const OpProfile& op = profile.ops[i];
        EXPECT_LE(op.label_tests + op.order_lookups, op.rows_out + 128)
            << query << " | " << ExplainPlan(plan.value(), &profile);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PlannerWindowTest,
                         ::testing::Values("scheme", "catalog-arena"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Cache units ----------------------------------------------------------

std::shared_ptr<const PhysicalPlan> MakePlan(const std::string& query) {
  Result<PhysicalPlan> plan = PlanCompiler::Compile(query);
  EXPECT_TRUE(plan.ok());
  return std::make_shared<const PhysicalPlan>(std::move(plan.value()));
}

TEST(PlannerCache, PlanCacheCountsHitsAndEvictsLru) {
  PlanCache cache(2);
  EXPECT_EQ(cache.Lookup("//a"), nullptr);
  cache.Insert("//a", MakePlan("//a"));
  cache.Insert("//b", MakePlan("//b"));
  EXPECT_NE(cache.Lookup("//a"), nullptr);  // touches //a: //b becomes LRU
  cache.Insert("//c", MakePlan("//c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("//b"), nullptr);
  EXPECT_NE(cache.Lookup("//a"), nullptr);
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(PlannerCache, PlanCacheRacingInsertKeepsExisting) {
  PlanCache cache(4);
  auto first = cache.Insert("//a", MakePlan("//a"));
  auto second = cache.Insert("//a", MakePlan("//a"));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
}

QueryPlanner::NodeSet MakeResult(std::vector<NodeId> ids) {
  return std::make_shared<const std::vector<NodeId>>(std::move(ids));
}

TEST(PlannerCache, ResultCacheKeysOnSnapshotPoint) {
  ResultCache cache(8);
  cache.Insert({"//a", /*epoch=*/1, /*journal_bytes=*/8}, MakeResult({1, 2}));
  cache.Insert({"//a", /*epoch=*/1, /*journal_bytes=*/40},
               MakeResult({1, 2, 3}));
  cache.Insert({"//a", /*epoch=*/2, /*journal_bytes=*/8}, MakeResult({7}));
  EXPECT_EQ(cache.size(), 3u);
  ASSERT_NE(cache.Lookup({"//a", 1, 8}), nullptr);
  EXPECT_EQ(cache.Lookup({"//a", 1, 8})->size(), 2u);
  EXPECT_EQ(cache.Lookup({"//a", 1, 40})->size(), 3u);
  EXPECT_EQ(cache.Lookup({"//a", 2, 8})->size(), 1u);
  EXPECT_EQ(cache.Lookup({"//b", 1, 8}), nullptr);
}

TEST(PlannerCache, ResultCacheEvictStaleDropsSupersededEpochs) {
  // Through QueryPlanner::EvictStale, the sweep the retirement listener
  // runs: results for every epoch but the current one are invalidated.
  Result<LabeledDocument> doc =
      LabeledDocument::FromXml("<a><b/><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  QueryPlanner planner;
  auto query = [&](const char* xpath, std::uint64_t epoch,
                   std::uint64_t journal_bytes) {
    bool hit = false;
    EXPECT_TRUE(planner
                    .Query(doc->label_table(), doc->scheme(), epoch,
                           journal_bytes, xpath, /*num_workers=*/1,
                           /*stats=*/nullptr, &hit)
                    .ok());
    return hit;
  };
  query("//b", 1, 8);
  query("//c", 1, 24);
  query("//b", 2, 8);
  planner.EvictStale(/*current_epoch=*/2);
  const QueryPlanner::Stats stats = planner.stats();
  EXPECT_EQ(stats.result.invalidations, 2u);
  EXPECT_EQ(stats.result.evictions, 0u);
  EXPECT_TRUE(query("//b", 2, 8));
  EXPECT_FALSE(query("//b", 1, 8));
}

TEST(PlannerCache, ResultCacheLruBoundsCapacity) {
  ResultCache cache(2);
  cache.Insert({"//a", 1, 8}, MakeResult({1}));
  cache.Insert({"//b", 1, 8}, MakeResult({2}));
  cache.Insert({"//c", 1, 8}, MakeResult({3}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup({"//a", 1, 8}), nullptr);
}

TEST(PlannerCache, ClearCountsNothing) {
  ResultCache cache(4);
  cache.Insert({"//a", 1, 8}, MakeResult({1}));
  cache.Insert({"//b", 1, 8}, MakeResult({2}));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(cache.Lookup({"//a", 1, 8}), nullptr);
}

// --- Service wiring -------------------------------------------------------

std::string ServicePlayXml() {
  PlayOptions options;
  options.acts = 2;
  options.scenes_per_act = 2;
  options.min_speeches_per_scene = 2;
  options.max_speeches_per_scene = 3;
  options.seed = 17;
  return SerializeXml(GeneratePlay("served", options));
}

QueryService MakePlannerService(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, ServicePlayXml());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return QueryService(std::move(store.value()), QueryService::Options{});
}

TEST(PlannerService, RepeatedQueryHitsResultCache) {
  QueryService service = MakePlannerService(TempPath("planner-svc-hit"));
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  Result<std::vector<NodeId>> first = session->Query(*snap, "//speech");
  Result<std::vector<NodeId>> second = session->Query(*snap, "//speech");
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value(), second.value());
  const QueryPlanner::Stats stats = service.planner().stats();
  EXPECT_EQ(stats.result.misses, 1u);
  EXPECT_EQ(stats.result.hits, 1u);
  EXPECT_EQ(stats.plan.misses, 1u);
  EXPECT_EQ(stats.plan.hits, 1u);
}

TEST(PlannerService, CheckpointInvalidatesCachedResults) {
  QueryService service = MakePlannerService(TempPath("planner-svc-inval"));
  DurableDocumentStore& store = service.store();
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  const std::size_t speeches =
      session->Query(*snap, "//speech").value().size();

  // Append a fresh speech and checkpoint: the retirement listener must
  // sweep the epoch-0 results alongside the epoch-0 views.
  std::vector<NodeId> scenes = store.Query("//scene").value();
  ASSERT_FALSE(scenes.empty());
  ASSERT_TRUE(store.AppendChild(scenes[0], "speech").ok());
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_GE(service.planner().stats().result.invalidations, 1u);

  // A fresh snapshot pins the new epoch and must see the new speech, not
  // a stale cached answer.
  Result<Snapshot> fresh = session->OpenSnapshot();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->epoch(), snap->epoch());
  EXPECT_EQ(session->Query(*fresh, "//speech").value().size(), speeches + 1);
}

TEST(PlannerService, PlannerPathMatchesEvaluatorFallback) {
  // Session::Query runs the cached compiled plan; the reference is the
  // tree-walking evaluator over the same frozen view's (table, oracle),
  // and Snapshot::Query runs the planner uncached.
  QueryService service = MakePlannerService(TempPath("planner-svc-diff"));
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  QueryContext ctx;
  ctx.table = &snap->view()->label_table();
  ctx.oracle = &snap->oracle();
  XPathEvaluator evaluator(&ctx);
  for (const char* query : {"//speech", "/play//act[2]//line",
                            "/play//speech[1]//Following-sibling::speech[3]"}) {
    Result<std::vector<NodeId>> planned = session->Query(*snap, query);
    Result<std::vector<NodeId>> walked = evaluator.Evaluate(query);
    Result<std::vector<NodeId>> uncached = snap->Query(query);
    ASSERT_TRUE(planned.ok() && walked.ok() && uncached.ok()) << query;
    EXPECT_EQ(planned.value(), walked.value()) << query;
    EXPECT_EQ(uncached.value(), walked.value()) << query;
  }
  // Only the session path goes through the planner's caches.
  EXPECT_EQ(service.planner().stats().result.misses, 3u);
}

TEST(PlannerService, ExplainWireVerbAndStatsCounters) {
  QueryService service = MakePlannerService(TempPath("planner-svc-wire"));
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  std::optional<Snapshot> snapshot;
  bool done = false;

  // EXPLAIN before SNAP is the usual typed error.
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot,
                               "EXPLAIN //speech", &done)
                .rfind("ERR InvalidArgument", 0),
            0u);
  ASSERT_EQ(ExecuteRequestLine(service, *session, &snapshot, "SNAP", &done)
                .rfind("OK ", 0),
            0u);
  const std::string explained = ExecuteRequestLine(
      service, *session, &snapshot, "EXPLAIN /play//act[2]", &done);
  EXPECT_EQ(explained.rfind("OK #0 ", 0), 0u) << explained;
  EXPECT_NE(explained.find("TagScan(act)"), std::string::npos);
  EXPECT_NE(explained.find("PositionSelect"), std::string::npos);
  EXPECT_NE(explained.find("OrderSort"), std::string::npos);
  EXPECT_NE(explained.find("out="), std::string::npos);

  ExecuteRequestLine(service, *session, &snapshot, "XPATH //speech", &done);
  ExecuteRequestLine(service, *session, &snapshot, "XPATH //speech", &done);
  const std::string stats =
      ExecuteRequestLine(service, *session, &snapshot, "STATS", &done);
  EXPECT_NE(stats.find("PLANHITS "), std::string::npos) << stats;
  EXPECT_NE(stats.find("PLANMISSES "), std::string::npos);
  EXPECT_NE(stats.find("RESHITS 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("RESINVALIDATIONS 0"), std::string::npos);
}

// --- Concurrent cached execution (ThreadSanitizer leg) --------------------

TEST(PlannerConcurrent, CachedExecutionIsRaceFreeUnderWriterChurn) {
  QueryService service = MakePlannerService(TempPath("planner-svc-tsan"));
  DurableDocumentStore& store = service.store();
  std::atomic<bool> done{false};

  std::thread writer([&] {
    std::mt19937 rng(53);
    for (int i = 0; i < 32; ++i) {
      std::vector<NodeId> scenes = store.Query("//scene").value();
      ASSERT_TRUE(store.AppendChild(scenes[rng() % scenes.size()], "w").ok());
      if (i % 8 == 7) {
        ASSERT_TRUE(store.Checkpoint().ok());
      }
    }
    ASSERT_TRUE(store.Flush().ok());
    done.store(true);
  });

  // Readers hammer a small query set so plan/result cache entries are
  // shared, re-inserted, and invalidated concurrently; EXPLAIN executes
  // uncached alongside.
  const char* queries[] = {"//speech", "/play//act[1]//line", "//speaker",
                           "/play//scene[2]"};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Result<Session> session = service.OpenSession();
      ASSERT_TRUE(session.ok());
      int spin = 0;
      while (!done.load() || spin < 8) {
        ++spin;
        Result<Snapshot> snap = session->OpenSnapshot();
        ASSERT_TRUE(snap.ok());
        Result<std::vector<NodeId>> ids =
            session->Query(*snap, queries[(r + spin) % 4]);
        ASSERT_TRUE(ids.ok());
        if (spin % 5 == 0) {
          ASSERT_TRUE(session->Explain(*snap, queries[r % 4]).ok());
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  const QueryPlanner::Stats stats = service.planner().stats();
  EXPECT_GT(stats.plan.hits, 0u);
  // Racing first lookups may each count a miss before one insert wins, so
  // misses is at least (not exactly) the distinct-query count.
  EXPECT_GE(stats.plan.misses, 4u);
}

}  // namespace
}  // namespace primelabel
