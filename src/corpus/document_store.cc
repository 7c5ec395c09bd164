#include "corpus/document_store.h"

#include <algorithm>

#include "planner/compiler.h"
#include "planner/executor.h"

namespace primelabel {

DocumentStore::DocId DocumentStore::AddDocument(std::string name,
                                                XmlTree tree) {
  Document doc;
  doc.name = std::move(name);
  doc.tree = std::make_unique<XmlTree>(std::move(tree));
  doc.scheme = std::make_unique<OrderedPrimeScheme>();
  doc.scheme->LabelTree(*doc.tree);
  doc.table = std::make_unique<LabelTable>(*doc.tree);
  documents_.push_back(std::move(doc));
  return static_cast<DocId>(documents_.size() - 1);
}

const std::string& DocumentStore::document_name(DocId doc) const {
  PL_CHECK(doc >= 0 && static_cast<std::size_t>(doc) < documents_.size());
  return documents_[static_cast<std::size_t>(doc)].name;
}

const XmlTree& DocumentStore::document(DocId doc) const {
  PL_CHECK(doc >= 0 && static_cast<std::size_t>(doc) < documents_.size());
  return *documents_[static_cast<std::size_t>(doc)].tree;
}

const OrderedPrimeScheme& DocumentStore::scheme(DocId doc) const {
  PL_CHECK(doc >= 0 && static_cast<std::size_t>(doc) < documents_.size());
  return *documents_[static_cast<std::size_t>(doc)].scheme;
}

Result<DocumentStore::QueryResult> DocumentStore::Query(
    std::string_view xpath) const {
  Result<PhysicalPlan> plan = PlanCompiler::Compile(xpath);
  if (!plan.ok()) return plan.status();
  QueryResult result;
  for (std::size_t d = 0; d < documents_.size(); ++d) {
    const Document& doc = documents_[d];
    QueryContext ctx;
    ctx.table = doc.table.get();
    ctx.oracle = doc.scheme.get();
    for (NodeId node : ExecutePlan(plan.value(), ctx)) {
      result.hits.push_back({static_cast<DocId>(d), node});
    }
    result.stats += ctx.stats;
  }
  return result;
}

int DocumentStore::MaxLabelBits() const {
  int bits = 0;
  for (const Document& doc : documents_) {
    bits = std::max(bits, doc.scheme->MaxLabelBits());
  }
  return bits;
}

std::size_t DocumentStore::total_nodes() const {
  std::size_t total = 0;
  for (const Document& doc : documents_) total += doc.tree->node_count();
  return total;
}

}  // namespace primelabel
