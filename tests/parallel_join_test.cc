// Parallel batched-join determinism. The worker fan-out of JoinBatched
// (store/plan.cc) and the oracle-internal batch sharding
// (StructureOracle::set_query_workers) are pure speed knobs: shards cover
// contiguous index ranges and write disjoint output slots, so the result
// — values and ordering — must be bit-identical to the sequential run at
// every worker count, on a live OrderedPrimeScheme and on a LoadedCatalog
// alike. These tests pin that down on a mixed-depth fixture big enough
// (>= 1024 items per batch) to actually cross the sharding threshold.
//
// Together with parallel_labeling_test this is the TSan target: configure
// with -DPRIMELABEL_SANITIZE=thread and run `ctest -R Parallel` to
// race-check every fan-out in the repo.

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
/// divisions inside every shard).
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

/// Anchor-ish context plus a candidate pool well past the 512-items-per-
/// worker sharding floor.
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

TEST(ParallelJoin, OracleBatchShardingBitIdentical) {
  XmlTree tree = DeepTree();
  OrderedPrimeScheme scheme(/*sc_group_size=*/5);
  scheme.LabelTree(tree);
  std::vector<NodeId> nodes = tree.PreorderNodes();
  Rng rng(505);
  // >= 1024 pairs so two or more shards actually form.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 4096; ++i) {
    pairs.emplace_back(nodes[rng.Below(nodes.size())],
                       nodes[rng.Below(nodes.size())]);
  }
  std::vector<NodeId> candidates;
  for (int i = 0; i < 2048; ++i) {
    candidates.push_back(nodes[rng.Below(nodes.size())]);
  }
  const NodeId anchor = nodes[nodes.size() / 3];

  scheme.set_query_workers(1);
  std::vector<std::uint8_t> batch_seq;
  scheme.IsAncestorBatch(pairs, &batch_seq);
  std::vector<NodeId> desc_seq, anc_seq;
  scheme.SelectDescendants(anchor, candidates, &desc_seq);
  scheme.SelectAncestors(anchor, candidates, &anc_seq);

  for (int workers : kWorkerCounts) {
    scheme.set_query_workers(workers);
    std::vector<std::uint8_t> batch;
    scheme.IsAncestorBatch(pairs, &batch);
    EXPECT_EQ(batch, batch_seq) << "workers=" << workers;
    std::vector<NodeId> desc, anc;
    scheme.SelectDescendants(anchor, candidates, &desc);
    EXPECT_EQ(desc, desc_seq) << "workers=" << workers;
    scheme.SelectAncestors(anchor, candidates, &anc);
    EXPECT_EQ(anc, anc_seq) << "workers=" << workers;
  }
  scheme.set_query_workers(1);
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

  // Oracle-internal sharding on the catalog, too.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 2048; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Below(row_count)),
                       static_cast<NodeId>(rng.Below(row_count)));
  }
  catalog.set_query_workers(1);
  std::vector<std::uint8_t> batch_seq;
  catalog.IsAncestorBatch(pairs, &batch_seq);
  for (int workers : kWorkerCounts) {
    catalog.set_query_workers(workers);
    std::vector<std::uint8_t> batch;
    catalog.IsAncestorBatch(pairs, &batch);
    EXPECT_EQ(batch, batch_seq) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace primelabel
