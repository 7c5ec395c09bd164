// Scaling study: labeling time and label growth vs document size for every
// scheme. Not a paper figure, but the measurement a downstream adopter
// asks first: what does labeling a large document cost, and how fast do
// prime labels grow with N (the Section 3.2 concern that the smaller
// primes "are used up").

#include <iostream>
#include <memory>

#include "bench/report.h"
#include "core/ordered_prime_scheme.h"
#include "labeling/dewey.h"
#include "labeling/interval.h"
#include "labeling/prefix.h"
#include "labeling/prime_optimized.h"
#include "xml/datasets.h"

int main() {
  using namespace primelabel;
  bench::Report time_report(
      "Scaling: full-document labeling time (ms)",
      {"Nodes", "interval", "prefix-2", "dewey", "prime", "prime+SC"});
  bench::Report size_report(
      "Scaling: max label size (bits)",
      {"Nodes", "interval", "prefix-2", "dewey", "prime"});

  for (std::size_t n : {1000u, 4000u, 16000u, 64000u}) {
    RandomTreeOptions options;
    options.node_count = n;
    options.max_depth = 7;
    options.max_fanout = 16;
    options.seed = n;
    XmlTree tree = GenerateRandomTree(options);

    double times[5];
    int bits[4];
    std::unique_ptr<LabelingScheme> schemes[4] = {
        std::make_unique<IntervalScheme>(),
        std::make_unique<PrefixScheme>(PrefixVariant::kBinary),
        std::make_unique<DeweyScheme>(),
        std::make_unique<PrimeOptimizedScheme>(),
    };
    for (int s = 0; s < 4; ++s) {
      bench::Stopwatch timer;
      schemes[s]->LabelTree(tree);
      times[s] = timer.ElapsedMs();
      bits[s] = schemes[s]->MaxLabelBits();
    }
    OrderedPrimeScheme ordered(/*sc_group_size=*/5);
    bench::Stopwatch timer;
    ordered.LabelTree(tree);
    times[4] = timer.ElapsedMs();

    time_report.AddRow(n, times[0], times[1], times[2], times[3], times[4]);
    size_report.AddRow(n, bits[0], bits[1], bits[2], bits[3]);
  }
  time_report.Print();
  size_report.Print();
  std::cout << "\nLabeling is linear for every scheme; the prime scheme's\n"
               "constant is the bigint product per node, and the SC build\n"
               "adds one CRT solve per group of 5 nodes.\n\n";
  return 0;
}
