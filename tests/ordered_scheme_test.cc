#include "core/ordered_prime_scheme.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "xml/datasets.h"
#include "xml/shakespeare.h"

namespace primelabel {
namespace {

// Ground-truth document order: preorder rank (root = 0).
std::vector<std::uint64_t> GroundTruthOrders(const XmlTree& tree) {
  std::vector<std::uint64_t> orders(tree.arena_size(), 0);
  std::uint64_t counter = 0;
  tree.Preorder([&](NodeId id, int) {
    orders[static_cast<size_t>(id)] = counter++;
  });
  return orders;
}

void ExpectOrdersMatchTree(const OrderedPrimeScheme& scheme,
                           const XmlTree& tree) {
  std::vector<std::uint64_t> truth = GroundTruthOrders(tree);
  tree.Preorder([&](NodeId id, int) {
    ASSERT_EQ(scheme.OrderOf(id), truth[static_cast<size_t>(id)])
        << "node " << id;
  });
}

TEST(OrderedPrimeScheme, OrdersMatchDocumentOrder) {
  RandomTreeOptions options;
  options.node_count = 150;
  options.seed = 5;
  XmlTree tree = GenerateRandomTree(options);
  OrderedPrimeScheme scheme(/*sc_group_size=*/5);
  scheme.LabelTree(tree);
  ExpectOrdersMatchTree(scheme, tree);
}

TEST(OrderedPrimeScheme, StructureQueriesDelegateToPrimeLabels) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId a = tree.AppendChild(root, "a");
  NodeId b = tree.AppendChild(root, "b");
  NodeId a1 = tree.AppendChild(a, "a1");
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  EXPECT_TRUE(scheme.IsAncestor(root, a1));
  EXPECT_TRUE(scheme.IsParent(a, a1));
  EXPECT_FALSE(scheme.IsAncestor(b, a1));
}

TEST(OrderedPrimeScheme, PrecedesAndFollowsImplementXPathAxes) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId a = tree.AppendChild(root, "a");
  NodeId a1 = tree.AppendChild(a, "a1");
  NodeId b = tree.AppendChild(root, "b");
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  // a precedes b; a1 precedes b; a does NOT precede a1 (ancestor).
  EXPECT_TRUE(scheme.Precedes(a, b));
  EXPECT_TRUE(scheme.Precedes(a1, b));
  EXPECT_FALSE(scheme.Precedes(a, a1));
  EXPECT_FALSE(scheme.Precedes(b, a));
  // b follows a and a1; a1 does NOT follow a (descendant).
  EXPECT_TRUE(scheme.Follows(b, a));
  EXPECT_TRUE(scheme.Follows(b, a1));
  EXPECT_FALSE(scheme.Follows(a1, a));
  EXPECT_FALSE(scheme.Follows(a, b));
}

TEST(OrderedPrimeScheme, OrderedInsertKeepsAllOrdersCorrect) {
  RandomTreeOptions options;
  options.node_count = 80;
  options.seed = 17;
  XmlTree tree = GenerateRandomTree(options);
  OrderedPrimeScheme scheme(/*sc_group_size=*/5);
  scheme.LabelTree(tree);

  Rng rng(3);
  for (int round = 0; round < 30; ++round) {
    std::vector<NodeId> nodes = tree.PreorderNodes();
    NodeId target = nodes[rng.Below(nodes.size())];
    NodeId fresh;
    if (target == tree.root() || rng.Chance(40)) {
      fresh = tree.AppendChild(target, "ins");
    } else if (rng.Chance(50)) {
      fresh = tree.InsertBefore(target, "ins");
    } else {
      fresh = tree.InsertAfter(target, "ins");
    }
    int relabeled = scheme.HandleInsert(fresh, InsertOrder::kDocumentOrder);
    EXPECT_GE(relabeled, 2);  // the new node + at least one SC record
    ExpectOrdersMatchTree(scheme, tree);
  }
}

TEST(OrderedPrimeScheme, WrapInsertShiftsOrders) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId a = tree.AppendChild(root, "a");
  tree.AppendChild(a, "a1");
  tree.AppendChild(root, "b");
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  NodeId wrapper = tree.WrapNode(a, "wrap");
  scheme.HandleInsert(wrapper, InsertOrder::kDocumentOrder);
  ExpectOrdersMatchTree(scheme, tree);
  EXPECT_TRUE(scheme.IsParent(wrapper, a));
}

TEST(OrderedPrimeScheme, CheapUpdatesComparedToSiblingRelabeling) {
  // The Figure 18 scenario in miniature: insert a new act between acts of a
  // play and compare the prime scheme's cost (1 label + a few SC records)
  // against the number of nodes a prefix/interval scheme would shift.
  XmlTree play = GenerateHamlet();
  OrderedPrimeScheme scheme(/*sc_group_size=*/5);
  scheme.LabelTree(play);
  std::vector<NodeId> acts = play.FindAll("act");
  ASSERT_EQ(acts.size(), 5u);
  NodeId fresh = play.InsertBefore(acts[1], "act");
  int cost = scheme.HandleInsert(fresh, InsertOrder::kDocumentOrder);
  // Nodes after the insertion point: everything from act 2 on (~4/5 of the
  // document). SC records cover groups of 5, so the cost must be roughly a
  // fifth of that, far below the document size.
  std::uint64_t following = play.node_count() - scheme.OrderOf(fresh) - 1;
  EXPECT_LT(cost, static_cast<int>(following) / 3);
  EXPECT_GT(cost, 2);
  ExpectOrdersMatchTree(scheme, play);
}

TEST(OrderedPrimeScheme, SelfLabelOutgrownByOrderIsReplaced) {
  // Repeatedly insert at the very front: the first-labeled node (self 2,
  // order 1) must be relabeled once its order reaches 2.
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId first = tree.AppendChild(root, "a");
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  EXPECT_EQ(scheme.structure().self_label(first), 2u);
  NodeId fresh = tree.InsertBefore(first, "b");
  scheme.HandleInsert(fresh, InsertOrder::kDocumentOrder);
  ExpectOrdersMatchTree(scheme, tree);
  // The shifted node now carries a larger prime.
  EXPECT_GT(scheme.structure().self_label(first), 2u);
  EXPECT_TRUE(scheme.IsParent(root, first));
  EXPECT_TRUE(scheme.IsParent(root, fresh));
}

TEST(OrderedPrimeScheme, DeletionNeverRelabelsAndKeepsOrderComparisons) {
  RandomTreeOptions options;
  options.node_count = 100;
  options.seed = 23;
  XmlTree tree = GenerateRandomTree(options);
  OrderedPrimeScheme scheme(/*sc_group_size=*/4);
  scheme.LabelTree(tree);

  // Detach a mid-document subtree.
  std::vector<NodeId> nodes = tree.PreorderNodes();
  NodeId victim = nodes[nodes.size() / 2];
  std::size_t sc_before = scheme.sc_table().size();
  tree.Detach(victim);
  EXPECT_EQ(scheme.HandleDelete(victim), 0);
  EXPECT_LT(scheme.sc_table().size(), sc_before);

  // Remaining nodes keep their (now gapped) order numbers, and relative
  // comparisons still reflect document order.
  std::vector<NodeId> remaining = tree.PreorderNodes();
  for (std::size_t i = 0; i + 1 < remaining.size(); ++i) {
    EXPECT_LT(scheme.OrderOf(remaining[i]), scheme.OrderOf(remaining[i + 1]));
  }
  // Structure queries untouched.
  for (NodeId x : remaining) {
    for (NodeId y : remaining) {
      ASSERT_EQ(scheme.IsAncestor(x, y), tree.IsAncestor(x, y));
    }
  }
  // Further ordered insertions must respect the gapped order sequence:
  // an appended node's order exceeds every live predecessor's, and a
  // mid-document insertion lands strictly between its neighbours.
  NodeId fresh = tree.AppendChild(tree.root(), "post-delete");
  scheme.HandleInsert(fresh, InsertOrder::kDocumentOrder);
  std::vector<NodeId> after_append = tree.PreorderNodes();
  for (std::size_t i = 0; i + 1 < after_append.size(); ++i) {
    ASSERT_LT(scheme.OrderOf(after_append[i]),
              scheme.OrderOf(after_append[i + 1]))
        << "order corrupted after post-delete append at " << i;
  }
  NodeId mid = tree.InsertBefore(remaining[remaining.size() / 2], "mid");
  scheme.HandleInsert(mid, InsertOrder::kDocumentOrder);
  std::vector<NodeId> after_mid = tree.PreorderNodes();
  for (std::size_t i = 0; i + 1 < after_mid.size(); ++i) {
    ASSERT_LT(scheme.OrderOf(after_mid[i]), scheme.OrderOf(after_mid[i + 1]))
        << "order corrupted after post-delete mid insert at " << i;
  }
}

// The oracle for XmlTree::PreorderPredecessor: a whole-document preorder
// walk remembering the node visited last before `target`.
NodeId WalkPredecessor(const XmlTree& tree, NodeId target) {
  NodeId predecessor = kInvalidNodeId;
  bool seen = false;
  tree.Preorder([&](NodeId id, int) {
    if (id == target) seen = true;
    if (!seen) predecessor = id;
  });
  EXPECT_TRUE(seen) << "node " << target << " is not attached";
  return predecessor;
}

// One random order-sensitive insert (InsertBefore, InsertAfter,
// AppendChild or Wrap); elements only receive children.
NodeId RandomInsert(XmlTree& tree, Rng& rng) {
  std::vector<NodeId> nodes = tree.PreorderNodes();
  NodeId target = nodes[rng.Below(nodes.size())];
  const std::uint64_t op = target == tree.root() ? 2 : rng.Below(4);
  switch (op) {
    case 0:
      return tree.InsertBefore(target, "ins");
    case 1:
      return tree.InsertAfter(target, "ins");
    case 2:
      if (!tree.IsElement(target)) return tree.InsertAfter(target, "ins");
      return tree.AppendChild(target, "ins");
    default:
      return tree.WrapNode(target, "wrap");
  }
}

TEST(OrderedPrimeScheme, LinkPredecessorMatchesPreorderWalk) {
  for (std::uint64_t seed : {3u, 19u, 41u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RandomTreeOptions options;
    options.node_count = 120;
    options.seed = seed;
    XmlTree tree = GenerateRandomTree(options);
    Rng rng(seed);
    // Text leaves anywhere, then a few subtrees detached before labeling:
    // their arena slots stay behind, unlinked.
    for (int i = 0; i < 30; ++i) {
      std::vector<NodeId> nodes = tree.PreorderNodes();
      NodeId at = nodes[rng.Below(nodes.size())];
      if (tree.IsElement(at)) tree.AppendText(at, "text");
    }
    for (int i = 0; i < 4; ++i) {
      std::vector<NodeId> nodes = tree.PreorderNodes();
      tree.Detach(nodes[1 + rng.Below(nodes.size() - 1)]);
    }
    OrderedPrimeScheme scheme(/*sc_group_size=*/5);
    scheme.LabelTree(tree);
    ExpectOrdersMatchTree(scheme, tree);

    // Inserts only: every order stays the node's preorder rank.
    for (int round = 0; round < 40; ++round) {
      NodeId fresh = RandomInsert(tree, rng);
      ASSERT_EQ(tree.PreorderPredecessor(fresh), WalkPredecessor(tree, fresh))
          << "round " << round;
      scheme.HandleInsert(fresh, InsertOrder::kDocumentOrder);
      ExpectOrdersMatchTree(scheme, tree);
    }
    // Inserts between deletions: orders become gapped but stay strictly
    // increasing in document order.
    for (int round = 0; round < 40; ++round) {
      if (rng.Chance(25)) {
        std::vector<NodeId> nodes = tree.PreorderNodes();
        NodeId victim = nodes[1 + rng.Below(nodes.size() - 1)];
        tree.Detach(victim);
        scheme.HandleDelete(victim);
      }
      NodeId fresh = RandomInsert(tree, rng);
      ASSERT_EQ(tree.PreorderPredecessor(fresh), WalkPredecessor(tree, fresh))
          << "round " << round;
      scheme.HandleInsert(fresh, InsertOrder::kDocumentOrder);
      std::vector<NodeId> nodes = tree.PreorderNodes();
      for (std::size_t k = 0; k + 1 < nodes.size(); ++k) {
        ASSERT_LT(scheme.OrderOf(nodes[k]), scheme.OrderOf(nodes[k + 1]))
            << "round " << round << " at " << k;
      }
    }
    EXPECT_TRUE(scheme.sc_table().VerifyIntegrity());
  }
}

TEST(OrderedPrimeScheme, Figure18ActInsertionCostsArePinned) {
  // bench_fig18_ordered_updates' prime column (EXPERIMENTS.md, Figure 18),
  // replayed with the bench's rule on one evolving Hamlet: insert before
  // original act k for k = 2..5, then after the original last act. Each
  // insert shifts only what follows it, so the costs fall act by act.
  XmlTree hamlet = GenerateHamlet();
  OrderedPrimeScheme scheme(/*sc_group_size=*/5);
  scheme.LabelTree(hamlet);
  const std::vector<NodeId> acts = hamlet.FindAll("act");
  ASSERT_EQ(acts.size(), 5u);
  std::vector<int> costs;
  for (std::size_t act = 2; act <= 6; ++act) {
    NodeId fresh = act <= acts.size()
                       ? hamlet.InsertBefore(acts[act - 1], "act")
                       : hamlet.InsertAfter(acts.back(), "act");
    costs.push_back(scheme.HandleInsert(fresh, InsertOrder::kDocumentOrder));
  }
  EXPECT_EQ(costs, (std::vector<int>{1052, 783, 520, 261, 2}));
  ExpectOrdersMatchTree(scheme, hamlet);
}

TEST(OrderedPrimeScheme, LabelStringMentionsOrder) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId a = tree.AppendChild(root, "a");
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  EXPECT_NE(scheme.LabelString(a).find("order=1"), std::string::npos);
  EXPECT_EQ(scheme.name(), "prime-ordered");
}

}  // namespace
}  // namespace primelabel
