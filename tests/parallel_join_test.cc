// Parallel batched-join determinism. The worker fan-out of JoinBatched
// (store/plan.cc, QueryContext::num_workers) is the one parallel path into
// the oracle's batch kernels, and it is a pure speed knob: anchor groups
// cover contiguous context ranges and OR-merge private matched bitmaps, so
// the result — values and ordering — must be bit-identical to the
// sequential run at every worker count, on a live OrderedPrimeScheme and
// on a LoadedCatalog alike.
//
// This is the TSan target for the join fan-out: configure with
// -DPRIMELABEL_SANITIZE=thread and run `ctest -R Parallel` to race-check
// it beside the concurrent batch-query tests.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ordered_prime_scheme.h"
#include "corpus/labeled_document.h"
#include "store/catalog.h"
#include "store/plan.h"
#include "util/rng.h"
#include "xml/shakespeare.h"

namespace primelabel {
namespace {

constexpr int kWorkerCounts[] = {1, 2, 3, 8};

/// Shakespeare corpus with deep element chains grafted under its acts, so
/// batches mix 1-3 limb corpus labels with multi-limb chain labels (the
/// shape that exercises both the fingerprint reject path and real
/// divisions inside every anchor group).
XmlTree DeepTree() {
  XmlTree tree = GenerateShakespeareCorpus(1);
  std::vector<NodeId> acts = tree.FindAll("act");
  constexpr int kChainDepths[] = {30, 45, 60};
  for (std::size_t c = 0; c < std::size(kChainDepths); ++c) {
    NodeId at = acts[c % acts.size()];
    for (int d = 0; d < kChainDepths[c]; ++d) {
      at = tree.AppendChild(at, "deep");
    }
  }
  return tree;
}

/// A dozen anchors (enough to split into several anchor groups) plus a
/// candidate pool of 2048.
struct JoinInputs {
  std::vector<NodeId> context;
  std::vector<NodeId> candidates;
};

JoinInputs MakeInputs(const std::vector<NodeId>& nodes, Rng& rng) {
  JoinInputs in;
  for (int i = 0; i < 12; ++i) {
    in.context.push_back(nodes[rng.Below(nodes.size())]);
  }
  for (int i = 0; i < 2048; ++i) {
    in.candidates.push_back(nodes[rng.Below(nodes.size())]);
  }
  return in;
}

TEST(ParallelJoin, JoinDescendantsWorkersBitIdentical) {
  XmlTree tree = DeepTree();
  OrderedPrimeScheme scheme(/*sc_group_size=*/5);
  scheme.LabelTree(tree);
  Rng rng(501);
  JoinInputs in = MakeInputs(tree.PreorderNodes(), rng);
  QueryContext ctx;
  ctx.oracle = &scheme;
  ctx.num_workers = 1;
  const std::vector<NodeId> sequential =
      JoinDescendants(ctx, in.context, in.candidates);
  EXPECT_FALSE(sequential.empty());  // the fixture must exercise matches
  for (int workers : kWorkerCounts) {
    ctx.num_workers = workers;
    EXPECT_EQ(JoinDescendants(ctx, in.context, in.candidates), sequential)
        << "workers=" << workers;
  }
}

TEST(ParallelJoin, JoinAncestorsWorkersBitIdentical) {
  XmlTree tree = DeepTree();
  OrderedPrimeScheme scheme(/*sc_group_size=*/5);
  scheme.LabelTree(tree);
  Rng rng(503);
  JoinInputs in = MakeInputs(tree.PreorderNodes(), rng);
  QueryContext ctx;
  ctx.oracle = &scheme;
  ctx.num_workers = 1;
  const std::vector<NodeId> sequential =
      JoinAncestors(ctx, in.context, in.candidates);
  EXPECT_FALSE(sequential.empty());
  for (int workers : kWorkerCounts) {
    ctx.num_workers = workers;
    EXPECT_EQ(JoinAncestors(ctx, in.context, in.candidates), sequential)
        << "workers=" << workers;
  }
}

TEST(ParallelJoin, CatalogJoinWorkersBitIdentical) {
  LabeledDocument doc = LabeledDocument::FromTree(DeepTree());
  const std::string path =
      std::string(::testing::TempDir()) + "/parallel_join_suite.plc";
  ASSERT_TRUE(doc.Save(path).ok());
  Result<LoadedCatalog> loaded = OpenCatalogMapped(DefaultVfs(), path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  LoadedCatalog catalog = std::move(loaded.value());

  // Catalog NodeIds are preorder row indices.
  const NodeId row_count = static_cast<NodeId>(catalog.row_count());
  Rng rng(507);
  JoinInputs in;
  for (int i = 0; i < 12; ++i) {
    in.context.push_back(static_cast<NodeId>(rng.Below(row_count)));
  }
  for (int i = 0; i < 2048; ++i) {
    in.candidates.push_back(static_cast<NodeId>(rng.Below(row_count)));
  }
  QueryContext ctx;
  ctx.oracle = &catalog;
  ctx.num_workers = 1;
  const std::vector<NodeId> desc_seq =
      JoinDescendants(ctx, in.context, in.candidates);
  const std::vector<NodeId> anc_seq =
      JoinAncestors(ctx, in.context, in.candidates);
  EXPECT_FALSE(desc_seq.empty());
  for (int workers : kWorkerCounts) {
    ctx.num_workers = workers;
    EXPECT_EQ(JoinDescendants(ctx, in.context, in.candidates), desc_seq)
        << "workers=" << workers;
    EXPECT_EQ(JoinAncestors(ctx, in.context, in.candidates), anc_seq)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace primelabel
