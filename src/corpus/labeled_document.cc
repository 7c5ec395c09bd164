#include "corpus/labeled_document.h"

#include <unordered_map>
#include <unordered_set>

#include "planner/executor.h"
#include "store/catalog.h"
#include "xml/parser.h"

namespace primelabel {

LabeledDocument::LabeledDocument(XmlTree tree)
    : tree_(std::make_unique<XmlTree>(std::move(tree))),
      scheme_(std::make_unique<OrderedPrimeScheme>()) {
  scheme_->LabelTree(*tree_);
}

Result<LabeledDocument> LabeledDocument::FromXml(std::string_view xml) {
  Result<XmlTree> parsed = ParseXml(xml);
  if (!parsed.ok()) return parsed.status();
  Status room = CheckLabelRoom(parsed->node_count());
  if (!room.ok()) return room;
  return LabeledDocument(std::move(parsed.value()));
}

Status LabeledDocument::CheckLabelRoom(std::size_t nodes) {
  return PrimeSource::CheckRoom(0, nodes == 0 ? 0 : nodes - 1);
}

LabeledDocument LabeledDocument::FromTree(XmlTree tree) {
  return LabeledDocument(std::move(tree));
}

const LabelTable& LabeledDocument::table() const {
  if (table_dirty_) {
    table_ = std::make_unique<LabelTable>(*tree_);
    table_dirty_ = false;
  }
  return *table_;
}

Result<std::vector<NodeId>> LabeledDocument::Query(
    std::string_view xpath) const {
  return ExecuteXPath(table(), *scheme_, xpath);
}

Status LabeledDocument::CheckInsertRoom(std::size_t cursor) const {
  return PrimeSource::CheckRoom(cursor,
                                1 + scheme_->sc_table().relabel_bound());
}

NodeId LabeledDocument::Finish(NodeId fresh) {
  last_update_cost_ = scheme_->HandleInsert(fresh, InsertOrder::kDocumentOrder);
  table_dirty_ = true;
  return fresh;
}

NodeId LabeledDocument::InsertBefore(NodeId sibling, std::string_view tag) {
  return Finish(tree_->InsertBefore(sibling, tag));
}

NodeId LabeledDocument::InsertAfter(NodeId sibling, std::string_view tag) {
  return Finish(tree_->InsertAfter(sibling, tag));
}

NodeId LabeledDocument::AppendChild(NodeId parent, std::string_view tag) {
  return Finish(tree_->AppendChild(parent, tag));
}

NodeId LabeledDocument::Wrap(NodeId node, std::string_view tag) {
  return Finish(tree_->WrapNode(node, tag));
}

void LabeledDocument::Delete(NodeId node) {
  tree_->Detach(node);
  last_update_cost_ = scheme_->HandleDelete(node);
  table_dirty_ = true;
}

std::vector<CatalogRow> LabeledDocument::ToCatalogRows() const {
  // One row per attached node in document order; parents by row index.
  std::unordered_map<NodeId, std::int64_t> row_of;
  std::int64_t next_row = 0;
  tree_->Preorder([&](NodeId id, int) { row_of[id] = next_row++; });
  std::vector<CatalogRow> rows;
  rows.reserve(static_cast<std::size_t>(next_row));
  tree_->Preorder([&](NodeId id, int) {
    CatalogRow row;
    row.tag = tree_->name(id);
    row.is_element = tree_->IsElement(id);
    NodeId parent = tree_->parent(id);
    row.parent = parent == kInvalidNodeId ? -1 : row_of[parent];
    row.attributes = tree_->node(id).attributes;
    row.label = scheme_->structure().label(id);
    row.self = scheme_->structure().self_label(id);
    row.fingerprint = scheme_->structure().fingerprint(id);
    rows.push_back(std::move(row));
  });
  return rows;
}

Status LabeledDocument::Save(Vfs& vfs, const std::string& path) const {
  return WriteCatalog(vfs, path, ToCatalogRows(), scheme_->sc_table());
}

Result<LabeledDocument> LabeledDocument::FromCatalogRows(
    std::vector<CatalogRow> rows, ScTable sc_table, bool fingerprints_valid,
    const std::string& origin) {
  // Every non-root node's order is sc mod self of the record holding its
  // self-label: a node no record holds has no order.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (!sc_table.Contains(rows[i].self)) {
      return Status::Corruption(origin + ": self-label " +
                                std::to_string(rows[i].self) + " of node " +
                                std::to_string(i) +
                                " is held by no SC record");
    }
  }
  // And every SC modulus must be some node's self-label. With every row's
  // held, the counts differ only when some modulus is no row's, or when
  // two rows share a self-label, which Adopt rejects below.
  if (sc_table.size() + 1 != rows.size()) {
    std::unordered_set<std::uint64_t> selves;
    for (std::size_t i = 1; i < rows.size(); ++i) selves.insert(rows[i].self);
    for (const ScRecord& record : sc_table.records()) {
      for (std::uint64_t modulus : record.moduli) {
        if (!selves.contains(modulus)) {
          return Status::Corruption(origin + ": SC modulus " +
                                    std::to_string(modulus) +
                                    " is held by no row");
        }
      }
    }
  }
  // The structure check the image open runs, so a file loads as a
  // document exactly when it can be served as an image.
  Status structure = CheckRowStructure(rows, origin);
  if (!structure.ok()) return structure;

  // Rows are in preorder, so every parent precedes its children and one
  // forward pass rebuilds the tree. Nodes are created in row order, which
  // makes NodeId == row index — the invariant Save relies on, and what
  // keeps the adopted label vectors aligned.
  auto doc = LabeledDocument();
  doc.tree_ = std::make_unique<XmlTree>();
  NodeId root = doc.tree_->CreateRoot(rows[0].tag);
  for (const auto& [key, value] : rows[0].attributes) {
    doc.tree_->AddAttribute(root, key, value);
  }
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const CatalogRow& row = rows[i];
    NodeId parent = static_cast<NodeId>(row.parent);
    NodeId fresh = row.is_element ? doc.tree_->AppendChild(parent, row.tag)
                                  : doc.tree_->AppendText(parent, row.tag);
    PL_CHECK(fresh == static_cast<NodeId>(i));
    for (const auto& [key, value] : row.attributes) {
      doc.tree_->AddAttribute(fresh, key, value);
    }
  }

  std::vector<BigInt> labels(rows.size());
  std::vector<std::uint64_t> selves(rows.size(), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    labels[i] = std::move(rows[i].label);
    selves[i] = rows[i].self;
  }
  // Rows carrying trusted fingerprints (v3 catalog with a matching config,
  // or a delta chain built from one) hand them to Adopt so the restart
  // path skips the recompute pass. NodeId == row index (checked above), so
  // the vectors line up.
  std::vector<LabelFingerprint> fps;
  if (fingerprints_valid) {
    fps.reserve(rows.size());
    for (const CatalogRow& row : rows) fps.push_back(row.fingerprint);
  }
  doc.scheme_ =
      std::make_unique<OrderedPrimeScheme>(sc_table.group_size());
  // NodeId == row index, so the node an Adopt error names is the row.
  Status adopted = doc.scheme_->Adopt(*doc.tree_, std::move(labels),
                                      std::move(selves), std::move(sc_table),
                                      std::move(fps));
  if (!adopted.ok()) {
    return Status::Corruption(origin + ": " + adopted.message());
  }
  return doc;
}

Result<LabeledDocument> LabeledDocument::Load(Vfs& vfs,
                                              const std::string& path) {
  Result<CatalogState> loaded = LoadCatalog(vfs, path);
  if (!loaded.ok()) return loaded.status();
  return FromCatalogRows(std::move(loaded->rows), std::move(loaded->sc_table),
                         loaded->fingerprints_valid, "catalog '" + path + "'");
}

Status SaveCatalog(const std::string& path, const LabeledDocument& doc) {
  return doc.Save(path);
}

}  // namespace primelabel
