// Corpus search: the paper's file-per-document storage model.
//
// Builds a DocumentStore of independently labeled plays (each with its own
// small label space and SC table, like the paper's 6,224 Niagara files in
// one DBMS) and runs queries whose results are unioned across documents —
// the configuration under which Table 2's counts read naturally.
//
// Build & run:   ./build/examples/corpus_search

#include <iostream>

#include "corpus/document_store.h"
#include "xml/shakespeare.h"

int main() {
  using namespace primelabel;

  DocumentStore store;
  const char* titles[] = {"hamlet", "macbeth", "othello", "lear", "tempest"};
  for (int i = 0; i < 5; ++i) {
    PlayOptions options;
    options.seed = static_cast<std::uint64_t>(i) + 1;
    store.AddDocument(titles[i], GeneratePlay(titles[i], options));
  }
  std::cout << "Corpus: " << store.document_count() << " documents, "
            << store.total_nodes() << " nodes; max per-document label "
            << store.MaxLabelBits() << " bits\n\n";

  for (const char* query :
       {"/play//act[4]", "/play//act[2]//Following::act",
        "/play//scene[1]/speech[1]/speaker"}) {
    Result<DocumentStore::QueryResult> result = store.Query(query);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    std::cout << query << "  ->  " << result->hits.size() << " hit(s)\n";
    for (std::size_t i = 0; i < result->hits.size() && i < 5; ++i) {
      const DocumentStore::Hit& hit = result->hits[i];
      std::cout << "    " << store.document_name(hit.doc) << ": <"
                << store.document(hit.doc).name(hit.node) << "> order "
                << store.scheme(hit.doc).OrderOf(hit.node) << "\n";
    }
    std::cout << "    (" << result->stats.rows_scanned << " rows scanned, "
              << result->stats.label_tests << " label tests)\n\n";
  }

  std::cout << "Note how the Following axis never crosses documents: each\n"
               "play answers independently, exactly one act[4] per play.\n";
  return 0;
}
