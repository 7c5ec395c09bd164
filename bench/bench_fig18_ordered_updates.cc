// Figure 18: Order-Sensitive Updates.
//
// Insert a new ACT element between each pair of consecutive acts of the
// Hamlet stand-in and count, per insertion, the nodes that must be
// relabeled so that labels (or the SC table) still encode document order.
// One SC value maintains the order of 5 nodes, and an SC record update
// counts as one relabeled node, both as in Section 5.4. Expected shape:
// interval and prefix relabel thousands (everything ordered after the new
// act); the prime scheme updates only SC records — roughly a fifth of the
// shifted nodes — and no node labels.

#include <iostream>

#include "bench/report.h"
#include "core/ordered_prime_scheme.h"
#include "labeling/interval.h"
#include "labeling/prefix.h"
#include "xml/shakespeare.h"
#include "xml/stats.h"

int main() {
  using namespace primelabel;
  XmlTree hamlet = GenerateHamlet();
  std::cout << "Hamlet stand-in: " << ComputeStats(hamlet).ToString() << "\n";

  bench::Report report(
      "Figure 18: nodes to relabel per order-sensitive ACT insertion "
      "(SC group size 5)",
      {"Inserted before act #", "interval", "prefix-2", "prime (SC)"});

  // Each scheme evolves its own copy of the document across the five
  // insertions, as the paper inserts "a new ACT node between each of these
  // nodes in the list".
  XmlTree interval_tree = hamlet;
  XmlTree prefix_tree = hamlet;
  XmlTree prime_tree = hamlet;
  IntervalScheme interval;
  interval.LabelTree(interval_tree);
  PrefixScheme prefix2(PrefixVariant::kBinary);
  prefix2.LabelTree(prefix_tree);
  OrderedPrimeScheme prime(/*sc_group_size=*/5);
  prime.LabelTree(prime_tree);

  // The original acts, fixed before any insert: a new act joins
  // FindAll("act"), so indexing the live list would land every insert
  // before the same act. The copies share Hamlet's NodeIds.
  const std::vector<NodeId> acts = hamlet.FindAll("act");
  long long interval_total = 0, prefix_total = 0, prime_total = 0;
  for (int act = 2; act <= 6; ++act) {
    // Insert before original act #act (after the original last act for
    // the final update), mirroring "between each" insertion.
    auto insert_new_act = [&](XmlTree& tree) {
      if (act - 1 < static_cast<int>(acts.size())) {
        return tree.InsertBefore(acts[static_cast<std::size_t>(act - 1)],
                                 "act");
      }
      return tree.InsertAfter(acts.back(), "act");
    };

    NodeId a = insert_new_act(interval_tree);
    int interval_cost = interval.HandleInsert(a, InsertOrder::kDocumentOrder);
    NodeId b = insert_new_act(prefix_tree);
    int prefix_cost = prefix2.HandleInsert(b, InsertOrder::kDocumentOrder);
    NodeId c = insert_new_act(prime_tree);
    int prime_cost = prime.HandleInsert(c, InsertOrder::kDocumentOrder);

    interval_total += interval_cost;
    prefix_total += prefix_cost;
    prime_total += prime_cost;
    report.AddRow(act - 1 < static_cast<int>(acts.size())
                      ? std::to_string(act)
                      : "after " + std::to_string(acts.size()),
                  interval_cost, prefix_cost, prime_cost);
  }
  report.Print();
  std::cout << "\nTotals over 5 insertions: interval " << interval_total
            << ", prefix-2 " << prefix_total << ", prime " << prime_total
            << ".\nShape check: 'none of the existing labeling schemes is "
               "able to handle\norder-sensitive updates efficiently' — the "
               "prime scheme's SC updates\nare a small fraction of the "
               "interval/prefix relabeling cost.\n";
  return 0;
}
