// primelabel_cli — command-line front end for the library.
//
//   primelabel_cli stats <file.xml>
//       Parse and print structural statistics (N, D, F of Section 3.1).
//   primelabel_cli label <file.xml> [prime|interval|prefix2|dewey]
//       Label the document and print each element's label and size.
//   primelabel_cli query <file.xml> <xpath>
//       Evaluate an XPath (Table 2 subset) through the ordered prime
//       scheme and print the matches.
//   primelabel_cli save <file.xml> <catalog.plc>
//   primelabel_cli inspect <catalog.plc>
//       Persist labels + SC table, and reload/verify a catalog.

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/ordered_prime_scheme.h"
#include "corpus/labeled_document.h"
#include "labeling/dewey.h"
#include "labeling/interval.h"
#include "labeling/prefix.h"
#include "labeling/prime_optimized.h"
#include "planner/executor.h"
#include "store/catalog.h"
#include "store/label_table.h"
#include "xml/parser.h"
#include "xml/stats.h"

namespace {

using namespace primelabel;

int Usage() {
  std::cerr <<
      "usage:\n"
      "  primelabel_cli stats <file.xml>\n"
      "  primelabel_cli label <file.xml> [prime|interval|prefix2|dewey]\n"
      "  primelabel_cli query <file.xml> <xpath>\n"
      "  primelabel_cli save <file.xml> <catalog.plc>\n"
      "  primelabel_cli inspect <catalog.plc>\n";
  return 2;
}

Result<XmlTree> LoadXml(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseXml(buffer.str());
}

/// Root-to-node tag path like /play/act[2]/scene[1].
std::string PathOf(const XmlTree& tree, NodeId id) {
  std::string path;
  std::vector<NodeId> chain;
  for (NodeId n = id; n != kInvalidNodeId; n = tree.parent(n)) {
    chain.push_back(n);
  }
  for (std::size_t i = chain.size(); i-- > 0;) {
    NodeId n = chain[i];
    path += "/" + tree.name(n);
    if (tree.parent(n) != kInvalidNodeId) {
      int position = 1;
      for (NodeId s = tree.node(n).prev_sibling; s != kInvalidNodeId;
           s = tree.node(s).prev_sibling) {
        if (tree.name(s) == tree.name(n)) ++position;
      }
      path += "[" + std::to_string(position) + "]";
    }
  }
  return path;
}

int RunStats(const std::string& file) {
  Result<XmlTree> tree = LoadXml(file);
  if (!tree.ok()) {
    std::cerr << tree.status().ToString() << "\n";
    return 1;
  }
  std::cout << ComputeStats(*tree).ToString() << "\n";
  return 0;
}

int RunLabel(const std::string& file, const std::string& which) {
  Result<XmlTree> parsed = LoadXml(file);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 1;
  }
  XmlTree tree = std::move(parsed.value());
  std::unique_ptr<LabelingScheme> scheme;
  if (which == "interval") {
    scheme = std::make_unique<IntervalScheme>();
  } else if (which == "prefix2") {
    scheme = std::make_unique<PrefixScheme>(PrefixVariant::kBinary);
  } else if (which == "dewey") {
    scheme = std::make_unique<DeweyScheme>();
  } else if (which == "prime" || which.empty()) {
    scheme = std::make_unique<PrimeOptimizedScheme>();
  } else {
    std::cerr << "unknown scheme '" << which << "'\n";
    return 2;
  }
  scheme->LabelTree(tree);
  tree.Preorder([&](NodeId id, int depth) {
    if (!tree.IsElement(id)) return;
    std::cout << std::string(static_cast<std::size_t>(depth) * 2, ' ') << "<"
              << tree.name(id) << ">  " << scheme->LabelString(id) << "  ("
              << scheme->LabelBits(id) << " bits)\n";
  });
  std::cout << "max label: " << scheme->MaxLabelBits()
            << " bits, avg: " << scheme->AvgLabelBits() << " bits\n";
  return 0;
}

int RunQuery(const std::string& file, const std::string& query) {
  Result<XmlTree> parsed = LoadXml(file);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 1;
  }
  XmlTree tree = std::move(parsed.value());
  OrderedPrimeScheme scheme;
  scheme.LabelTree(tree);
  LabelTable table(tree);
  EvalStats stats;
  Result<std::vector<NodeId>> result =
      ExecuteXPath(table, scheme, query, /*num_workers=*/1, &stats);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  for (NodeId id : result.value()) {
    std::cout << PathOf(tree, id) << "\n";
  }
  std::cerr << result->size() << " node(s); " << stats.rows_scanned
            << " rows scanned, " << stats.label_tests << " label tests, "
            << stats.order_lookups << " order lookups\n";
  return 0;
}

int RunSave(const std::string& file, const std::string& catalog) {
  Result<XmlTree> parsed = LoadXml(file);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 1;
  }
  LabeledDocument doc = LabeledDocument::FromTree(std::move(parsed.value()));
  Status status = SaveCatalog(catalog, doc);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  std::cout << "saved " << doc.tree().node_count() << " labeled nodes and "
            << doc.scheme().sc_table().records().size() << " SC records to "
            << catalog << "\n";
  return 0;
}

int RunInspect(const std::string& catalog) {
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), catalog);
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }
  const std::vector<CatalogRow>& rows = loaded->rows;
  const ScTable& sc_table = loaded->sc_table;
  std::cout << rows.size() << " rows, " << sc_table.records().size()
            << " SC records (group " << sc_table.group_size() << ")\n";
  if (!sc_table.VerifyIntegrity()) {
    std::cerr << "SC table integrity check FAILED\n";
    return 1;
  }
  std::cout << "SC table integrity verified (sc mod m == order for every "
            << "congruence)\n";
  // Verify order recovery: rows are stored in document order, so the
  // recovered order numbers must be strictly increasing (they may have
  // gaps if the document saw updates before the save).
  for (std::size_t i = 1; i + 1 < rows.size(); ++i) {
    if (sc_table.OrderOf(rows[i].self) >= sc_table.OrderOf(rows[i + 1].self)) {
      std::cerr << "order mismatch at row " << i << "\n";
      return 1;
    }
  }
  std::cout << "order recovery verified: sc mod self increases in document "
            << "order\n";
  int max_bits = 0;
  for (const CatalogRow& row : rows) {
    max_bits = std::max(max_bits, row.label.BitLength());
  }
  std::cout << "max stored label: " << max_bits << " bits\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  const std::string& command = args[0];
  if (command == "stats" && args.size() == 2) return RunStats(args[1]);
  if (command == "label" && (args.size() == 2 || args.size() == 3)) {
    return RunLabel(args[1], args.size() == 3 ? args[2] : "prime");
  }
  if (command == "query" && args.size() == 3) {
    return RunQuery(args[1], args[2]);
  }
  if (command == "save" && args.size() == 3) return RunSave(args[1], args[2]);
  if (command == "inspect" && args.size() == 2) return RunInspect(args[1]);
  return Usage();
}
