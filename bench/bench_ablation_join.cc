// Ablation: nested-loop structural join vs the planner's order window.
//
// The paper's SQL translation evaluates ancestor-descendant steps as
// per-row predicates (a nested loop over the tag-index scan). XML query
// processors of the same era introduced structural joins that exploit
// document order; the planner's descendant window goes further, finding
// each anchor's contiguous run with galloping searches on order numbers
// and label tests. This bench quantifies how much of Figure 15's join
// cost is the join algorithm rather than the labeling scheme.

#include <iostream>

#include "bench/report.h"
#include "core/ordered_prime_scheme.h"
#include "labeling/interval.h"
#include "labeling/prefix.h"
#include "planner/compiler.h"
#include "planner/executor.h"
#include "store/label_table.h"
#include "store/plan.h"
#include "store/range_index.h"
#include "xml/shakespeare.h"
#include "xml/stats.h"

int main() {
  using namespace primelabel;
  XmlTree corpus = GenerateShakespeareCorpus(10);
  std::cout << "Corpus: " << ComputeStats(corpus).ToString() << "\n";
  LabelTable table(corpus);

  IntervalScheme interval;
  interval.LabelTree(corpus);
  OrderedPrimeScheme prime;
  prime.LabelTree(corpus);
  PrefixScheme prefix2(PrefixVariant::kBinary);
  prefix2.LabelTree(corpus);
  std::vector<std::uint64_t> rank(corpus.arena_size(), 0);
  {
    std::uint64_t counter = 0;
    corpus.Preorder([&](NodeId id, int) {
      rank[static_cast<std::size_t>(id)] = counter++;
    });
  }

  struct Entry {
    const char* name;
    QueryContext ctx;
  };
  SchemeOracle interval_oracle(
      &interval, [&interval](NodeId id) { return interval.low(id); });
  SchemeOracle prefix_oracle(&prefix2, [&rank](NodeId id) {
    return rank[static_cast<std::size_t>(id)];
  });
  std::vector<Entry> entries(3);
  entries[0].name = "interval";
  entries[0].ctx.oracle = &interval_oracle;
  entries[1].name = "prime";
  entries[1].ctx.oracle = &prime;
  entries[2].name = "prefix-2";
  entries[2].ctx.oracle = &prefix_oracle;
  for (Entry& entry : entries) entry.ctx.table = &table;

  bench::Report report(
      "Ablation: structural join algorithm (act//line over 10 plays)",
      {"Scheme", "Nested ms", "Nested tests", "Window ms", "Window tests",
       "Window ord", "Speedup"});
  const std::vector<NodeId>& anchors = table.Rows("act");
  const std::vector<NodeId>& candidates = table.Rows("line");
  // The planner's plan for the same join: a scan of the acts feeding the
  // descendant window over the line list.
  const PhysicalPlan plan = PlanCompiler::Compile("//act//line").value();
  for (Entry& entry : entries) {
    entry.ctx.stats = EvalStats{};
    bench::Stopwatch nested_timer;
    std::vector<NodeId> nested =
        JoinDescendants(entry.ctx, anchors, candidates);
    double nested_ms = nested_timer.ElapsedMs();
    std::uint64_t nested_tests = entry.ctx.stats.label_tests;

    entry.ctx.stats = EvalStats{};
    bench::Stopwatch window_timer;
    std::vector<NodeId> windowed = ExecutePlan(plan, entry.ctx);
    double window_ms = window_timer.ElapsedMs();
    if (windowed != nested) {
      std::cerr << "join results differ for " << entry.name << "!\n";
      return 1;
    }
    report.AddRow(entry.name, nested_ms, nested_tests, window_ms,
                  entry.ctx.stats.label_tests, entry.ctx.stats.order_lookups,
                  std::to_string(nested_ms / window_ms) + "x");
  }
  report.Print();

  // Third strategy, interval only: the XISS-style B+-tree element index —
  // descendants come from one range scan per anchor, no per-row tests.
  RangeIndex range_index(corpus, interval);
  bench::Stopwatch index_timer;
  std::vector<NodeId> via_index;
  for (NodeId anchor : anchors) {
    std::vector<NodeId> part = range_index.DescendantsWithTag(anchor, "line");
    via_index.insert(via_index.end(), part.begin(), part.end());
  }
  double index_ms = index_timer.ElapsedMs();
  std::cout << "\nInterval + B+-tree range index (XISS element index): "
            << index_ms << " ms, " << via_index.size()
            << " rows via range scans, 0 label tests.\n";

  std::cout << "\nThe window reads only each anchor's run, O(log n) order\n"
               "lookups and label tests per anchor instead of O(|context|)\n"
               "tests per row, compressing the gap between schemes — the\n"
               "per-test cost matters most under the nested loop the\n"
               "paper's SQL translation implies. The range index removes\n"
               "the per-row predicate entirely, which only the interval\n"
               "scheme's containment encoding supports.\n";
  return 0;
}
