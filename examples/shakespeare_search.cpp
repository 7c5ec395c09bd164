// End-to-end XPath search over a generated Shakespeare corpus.
//
// Generates a corpus of plays, labels it with the ordered prime scheme,
// loads the label table (the relational storage model of Section 5.2) and
// answers XPath queries — including the order-sensitive axes — from
// labels alone. Pass queries as arguments to run your own.
//
// Build & run:   ./build/examples/shakespeare_search
//                ./build/examples/shakespeare_search '/play//act[2]//line'

#include <iostream>
#include <string>
#include <vector>

#include "core/ordered_prime_scheme.h"
#include "planner/executor.h"
#include "store/label_table.h"
#include "xml/shakespeare.h"
#include "xml/stats.h"

int main(int argc, char** argv) {
  using namespace primelabel;

  XmlTree corpus = GenerateShakespeareCorpus(/*replicas=*/3);
  std::cout << "Corpus: " << ComputeStats(corpus).ToString() << "\n\n";

  OrderedPrimeScheme scheme(/*sc_group_size=*/5);
  scheme.LabelTree(corpus);
  LabelTable table(corpus);
  EvalStats stats;

  std::vector<std::string> queries;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) queries.emplace_back(argv[i]);
  } else {
    queries = {
        "/play//act[4]",
        "/play//act[2]//Following::act",
        "/play//scene[1]/speech[1]/speaker",
        "/play//act[1]//Preceding::persona",
        "/play//speech[2]//Following-sibling::speech[1]",
    };
  }

  for (const std::string& query : queries) {
    Result<std::vector<NodeId>> result =
        ExecuteXPath(table, scheme, query, /*num_workers=*/1, &stats);
    if (!result.ok()) {
      std::cout << query << "\n  error: " << result.status().ToString()
                << "\n\n";
      continue;
    }
    std::cout << query << "\n  " << result->size() << " node(s)";
    // Show the first few hits with their labels and order numbers.
    for (std::size_t i = 0; i < result->size() && i < 3; ++i) {
      NodeId id = (*result)[i];
      std::cout << "\n    <" << corpus.name(id)
                << "> label=" << scheme.structure().label(id).ToDecimalString()
                << " order=" << scheme.OrderOf(id);
    }
    std::cout << "\n\n";
  }
  std::cout << "Query engine stats: " << stats.rows_scanned
            << " rows scanned, " << stats.label_tests
            << " label tests, " << stats.order_lookups
            << " order lookups\n";
  return 0;
}
