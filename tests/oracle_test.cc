// Shared StructureOracle contract suite: every test body runs unchanged
// against both implementations — the live OrderedPrimeScheme and a
// LoadedCatalog restored from disk — on a small play and on a deep tree.
// This is the point of the oracle interface: the query pipeline cannot
// tell a running labeler from a reloaded catalog, so neither may the
// contract.

#include "core/structure_oracle.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/labeled_document.h"
#include "store/catalog.h"
#include "util/rng.h"
#include "xml/datasets.h"
#include "xml/shakespeare.h"

namespace primelabel {
namespace {

/// Builds one labeled document and exposes it through the oracle named by
/// the test parameter. `handle(i)` is the oracle's NodeId for the i-th node
/// in document order: the tree's node id for the live scheme, the row index
/// for the catalog (rows are written in preorder).
///
/// The play's labels stay at one or two limbs, so almost every exact test
/// behind its fingerprint screen runs the word reciprocal. The `_deep`
/// parameters label a random binary tree up to 96 levels deep instead,
/// whose labels reach five limbs: there the batch kernels' survivors take
/// the Montgomery sweep, in both divisibility directions.
class OracleTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam().ends_with("_deep")) {
      RandomTreeOptions options;
      options.node_count = 3000;
      options.max_depth = 96;
      options.max_fanout = 2;
      doc_.emplace(LabeledDocument::FromTree(GenerateRandomTree(options)));
    } else {
      PlayOptions options;
      options.acts = 3;
      options.scenes_per_act = 2;
      options.min_speeches_per_scene = 2;
      options.max_speeches_per_scene = 5;
      options.seed = 42;
      doc_.emplace(LabeledDocument::FromTree(GeneratePlay("t", options)));
    }
    preorder_ = doc_->tree().PreorderNodes();

    if (is_catalog()) {
      // Unique per process: ctest runs each case in its own process, and
      // concurrent Save/Load/remove on one shared path race under -j.
      std::string path = std::string(::testing::TempDir()) +
                         "/oracle_suite_" + std::to_string(::getpid()) +
                         ".plc";
      ASSERT_TRUE(doc_->Save(path).ok());
      Result<LoadedCatalog> loaded = OpenCatalogMapped(DefaultVfs(), path);
      std::remove(path.c_str());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      catalog_ = std::make_unique<LoadedCatalog>(std::move(loaded.value()));
      oracle_ = catalog_.get();
    } else {
      oracle_ = &doc_->scheme();
    }
  }

  bool is_catalog() const { return GetParam().starts_with("catalog"); }
  NodeId handle(std::size_t rank) const {
    if (is_catalog()) return static_cast<NodeId>(rank);
    return preorder_[rank];
  }
  std::size_t node_count() const { return preorder_.size(); }
  const XmlTree& tree() const { return doc_->tree(); }

  std::optional<LabeledDocument> doc_;
  std::vector<NodeId> preorder_;
  std::unique_ptr<LoadedCatalog> catalog_;
  const StructureOracle* oracle_ = nullptr;
};

TEST_P(OracleTest, AncestorAndParentMatchTree) {
  for (std::size_t x = 0; x < node_count(); x += 5) {
    for (std::size_t y = 0; y < node_count(); y += 3) {
      EXPECT_EQ(oracle_->IsAncestor(handle(x), handle(y)),
                tree().IsAncestor(preorder_[x], preorder_[y]))
          << x << " " << y;
      EXPECT_EQ(oracle_->IsParent(handle(x), handle(y)),
                tree().parent(preorder_[y]) == preorder_[x])
          << x << " " << y;
    }
  }
}

TEST_P(OracleTest, OrderNumbersFollowDocumentOrder) {
  EXPECT_EQ(oracle_->OrderOf(handle(0)), 0u);  // the root
  for (std::size_t i = 1; i < node_count(); ++i) {
    EXPECT_LT(oracle_->OrderOf(handle(i - 1)), oracle_->OrderOf(handle(i)))
        << i;
  }
}

TEST_P(OracleTest, PrecedesAndFollowsDeriveFromOrderAndAncestry) {
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::size_t x = rng.Below(node_count());
    std::size_t y = rng.Below(node_count());
    bool expected_precedes = x < y && !tree().IsAncestor(preorder_[x],
                                                         preorder_[y]);
    bool expected_follows = x > y && !tree().IsAncestor(preorder_[y],
                                                        preorder_[x]);
    EXPECT_EQ(oracle_->Precedes(handle(x), handle(y)), expected_precedes)
        << x << " " << y;
    EXPECT_EQ(oracle_->Follows(handle(x), handle(y)), expected_follows)
        << x << " " << y;
  }
}

TEST_P(OracleTest, IsAncestorBatchAgreesWithPairwise) {
  Rng rng(13);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 1000; ++i) {
    pairs.emplace_back(handle(rng.Below(node_count())),
                       handle(rng.Below(node_count())));
  }
  std::vector<std::uint8_t> results;
  oracle_->IsAncestorBatch(pairs, &results);
  ASSERT_EQ(results.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(results[i] != 0,
              oracle_->IsAncestor(pairs[i].first, pairs[i].second))
        << "pair " << i;
  }
}

TEST_P(OracleTest, SelectDescendantsAgreesWithPairwise) {
  Rng rng(29);
  std::vector<NodeId> candidates;
  for (std::size_t i = 0; i < node_count(); ++i) candidates.push_back(handle(i));
  for (int trial = 0; trial < 20; ++trial) {
    NodeId anchor = handle(rng.Below(node_count()));
    std::vector<NodeId> batched;
    oracle_->SelectDescendants(anchor, candidates, &batched);
    std::vector<NodeId> pairwise;
    for (NodeId candidate : candidates) {
      if (oracle_->IsAncestor(anchor, candidate)) pairwise.push_back(candidate);
    }
    EXPECT_EQ(batched, pairwise) << "anchor " << anchor;
  }
}

TEST_P(OracleTest, SelectAncestorsAgreesWithPairwise) {
  Rng rng(31);
  std::vector<NodeId> candidates;
  for (std::size_t i = 0; i < node_count(); ++i) candidates.push_back(handle(i));
  for (int trial = 0; trial < 20; ++trial) {
    NodeId descendant = handle(rng.Below(node_count()));
    std::vector<NodeId> batched;
    oracle_->SelectAncestors(descendant, candidates, &batched);
    std::vector<NodeId> pairwise;
    for (NodeId candidate : candidates) {
      if (oracle_->IsAncestor(candidate, descendant)) {
        pairwise.push_back(candidate);
      }
    }
    EXPECT_EQ(batched, pairwise) << "descendant " << descendant;
  }
}

/// Forwards only the three pure-virtual scalar queries to a wrapped
/// oracle, hiding every batch/axis override — so running the contract
/// through it exercises the StructureOracle BASE-CLASS defaults
/// (IsAncestorBatch/SelectDescendants/SelectAncestors loops and the
/// order-and-ancestry Precedes/Follows) against both backends.
class ScalarOnlyOracle : public StructureOracle {
 public:
  explicit ScalarOnlyOracle(const StructureOracle* inner) : inner_(inner) {}
  bool IsAncestor(NodeId x, NodeId y) const override {
    return inner_->IsAncestor(x, y);
  }
  bool IsParent(NodeId x, NodeId y) const override {
    return inner_->IsParent(x, y);
  }
  std::uint64_t OrderOf(NodeId id) const override {
    return inner_->OrderOf(id);
  }

 private:
  const StructureOracle* inner_;
};

TEST_P(OracleTest, DefaultBatchPathsAgreeWithOverrides) {
  ScalarOnlyOracle defaults(oracle_);

  Rng rng(37);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 500; ++i) {
    pairs.emplace_back(handle(rng.Below(node_count())),
                       handle(rng.Below(node_count())));
  }
  std::vector<std::uint8_t> from_default, from_override;
  defaults.IsAncestorBatch(pairs, &from_default);
  oracle_->IsAncestorBatch(pairs, &from_override);
  ASSERT_EQ(from_default.size(), from_override.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(from_default[i] != 0, from_override[i] != 0) << "pair " << i;
  }

  std::vector<NodeId> candidates;
  for (std::size_t i = 0; i < node_count(); ++i) candidates.push_back(handle(i));
  for (int trial = 0; trial < 10; ++trial) {
    NodeId anchor = handle(rng.Below(node_count()));
    std::vector<NodeId> down_default, down_override;
    defaults.SelectDescendants(anchor, candidates, &down_default);
    oracle_->SelectDescendants(anchor, candidates, &down_override);
    EXPECT_EQ(down_default, down_override) << "anchor " << anchor;

    std::vector<NodeId> up_default, up_override;
    defaults.SelectAncestors(anchor, candidates, &up_default);
    oracle_->SelectAncestors(anchor, candidates, &up_override);
    EXPECT_EQ(up_default, up_override) << "anchor " << anchor;
  }
}

TEST_P(OracleTest, DefaultPrecedesFollowsAgreeWithOverrides) {
  ScalarOnlyOracle defaults(oracle_);
  Rng rng(41);
  for (int trial = 0; trial < 500; ++trial) {
    NodeId x = handle(rng.Below(node_count()));
    NodeId y = handle(rng.Below(node_count()));
    EXPECT_EQ(defaults.Precedes(x, y), oracle_->Precedes(x, y))
        << x << " " << y;
    EXPECT_EQ(defaults.Follows(x, y), oracle_->Follows(x, y))
        << x << " " << y;
  }
}

INSTANTIATE_TEST_SUITE_P(Oracles, OracleTest,
                         ::testing::Values("scheme", "catalog",
                                           "scheme_deep", "catalog_deep"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace primelabel
