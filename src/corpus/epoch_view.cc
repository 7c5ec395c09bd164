#include "corpus/epoch_view.h"

#include <utility>

#include "planner/executor.h"

namespace primelabel {

namespace {

/// Per-view heap footprint of a materialized document's label store: the
/// BigInt label per node, its fingerprint, and the SC table's working
/// form — per record the struct with its moduli/orders buffers and SC
/// BigInt, plus the per-node order index (each index entry counted as key,
/// mapped value and chaining pointer, like LoadedCatalog::label_store_bytes
/// counts its modulus index, so the two modes are comparable).
std::size_t HeapLabelBytes(const LabeledDocument& doc) {
  constexpr std::size_t kMapNodeOverhead = sizeof(void*);
  std::size_t bytes = 0;
  const auto& structure = doc.scheme().structure();
  doc.tree().Preorder([&](NodeId id, int) {
    bytes += sizeof(BigInt) + structure.label(id).Magnitude().size() * 8 +
             sizeof(LabelFingerprint);
  });
  std::size_t tracked = 0;
  for (const ScRecord& record : doc.scheme().sc_table().records()) {
    bytes += sizeof(ScRecord) + record.sc.Magnitude().size() * 8 +
             (record.moduli.size() + record.orders.size()) * 8;
    tracked += record.moduli.size();
  }
  bytes += tracked * (sizeof(std::uint64_t) +
                      sizeof(std::pair<std::size_t, std::size_t>) +
                      kMapNodeOverhead);
  return bytes;
}

}  // namespace

EpochView::EpochView(LabeledDocument doc) {
  auto owned = std::make_unique<LabeledDocument>(std::move(doc));
  owned->label_table();  // freeze lazy state before any sharing
  heap_label_bytes_ = HeapLabelBytes(*owned);
  doc_ = std::move(owned);
}

EpochView::EpochView(LoadedCatalog catalog) {
  catalog_ = std::make_unique<LoadedCatalog>(std::move(catalog));
  table_ = std::make_unique<LabelTable>(*catalog_);
}

std::size_t EpochView::node_count() const {
  return arena_backed() ? catalog_->row_count() : doc_->tree().node_count();
}

std::size_t EpochView::id_limit() const {
  return arena_backed() ? catalog_->row_count() : doc_->tree().arena_size();
}

const StructureOracle& EpochView::oracle() const {
  if (arena_backed()) return *catalog_;
  return doc_->scheme();
}

const LabelTable& EpochView::label_table() const {
  return arena_backed() ? *table_ : doc_->label_table();
}

std::size_t EpochView::label_store_bytes() const {
  return arena_backed() ? catalog_->label_store_bytes() : heap_label_bytes_;
}

Result<std::vector<NodeId>> EpochView::Query(std::string_view xpath,
                                             int num_workers) const {
  return ExecuteXPath(label_table(), oracle(), xpath, num_workers);
}

const LabeledDocument& EpochView::document() const {
  if (!arena_backed()) return *doc_;
  std::call_once(doc_once_, [this] {
    // The image passed every digest and shape check at open; a rebuild
    // failure here means the invariants above were violated.
    Result<ScTable> sc_table = catalog_->MaterializeScTable();
    PL_CHECK(sc_table.ok());
    Result<LabeledDocument> doc = LabeledDocument::FromCatalogRows(
        catalog_->MaterializeRows(), std::move(sc_table.value()),
        /*fingerprints_valid=*/true, "arena epoch view");
    PL_CHECK(doc.ok());
    doc_ = std::make_unique<const LabeledDocument>(std::move(doc.value()));
  });
  return *doc_;
}

}  // namespace primelabel
