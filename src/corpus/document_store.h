#ifndef PRIMELABEL_CORPUS_DOCUMENT_STORE_H_
#define PRIMELABEL_CORPUS_DOCUMENT_STORE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/ordered_prime_scheme.h"
#include "store/label_table.h"
#include "store/plan.h"
#include "util/status.h"
#include "xml/tree.h"

namespace primelabel {

/// A corpus of independently labeled documents.
///
/// This is the paper's actual storage model: the evaluation labels 6,224
/// separate XML files, each with its own (small) label space and its own
/// SC table, stored together in one DBMS with a document-id column.
/// Per-document labeling is what keeps prime labels compact (their size
/// grows with the node count of a *file*, not the corpus) and it gives
/// queries per-document semantics — `Following::act` never leaks across
/// plays, which is how Table 2's counts read (Q2 = 2 acts x 185 plays).
///
/// Queries run against every document and results are unioned in
/// (document, document-order) order.
class DocumentStore {
 public:
  using DocId = int;

  /// One query hit: which document, which node.
  struct Hit {
    DocId doc;
    NodeId node;
    friend bool operator==(const Hit&, const Hit&) = default;
  };

  /// Result set plus the accumulated operator counters.
  struct QueryResult {
    std::vector<Hit> hits;
    EvalStats stats;
  };

  /// Every document takes OrderedPrimeScheme's default SC group size.
  DocumentStore() = default;

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  /// Adds, labels and indexes a document. Returns its id.
  DocId AddDocument(std::string name, XmlTree tree);

  std::size_t document_count() const { return documents_.size(); }
  const std::string& document_name(DocId doc) const;
  const XmlTree& document(DocId doc) const;
  const OrderedPrimeScheme& scheme(DocId doc) const;

  /// Evaluates the query against every document: compiled once, its plan
  /// executed per document (kParseError on bad syntax).
  Result<QueryResult> Query(std::string_view xpath) const;

  /// Largest label across the corpus — with per-document labeling this is
  /// the max over per-file maxima, the quantity Figure 14 stores.
  int MaxLabelBits() const;
  /// Total nodes across all documents.
  std::size_t total_nodes() const;

 private:
  struct Document {
    std::string name;
    std::unique_ptr<XmlTree> tree;           // stable address for the scheme
    std::unique_ptr<OrderedPrimeScheme> scheme;
    std::unique_ptr<LabelTable> table;
  };

  std::vector<Document> documents_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_CORPUS_DOCUMENT_STORE_H_
