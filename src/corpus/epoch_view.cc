#include "corpus/epoch_view.h"

#include <utility>

#include "planner/executor.h"

namespace primelabel {

EpochView::EpochView(LoadedCatalog catalog)
    : catalog_(std::move(catalog)), table_(catalog_) {}

Result<std::vector<NodeId>> EpochView::Query(std::string_view xpath,
                                             int num_workers) const {
  return ExecuteXPath(table_, catalog_, xpath, num_workers);
}

const LabeledDocument& EpochView::document() const {
  std::call_once(doc_once_, [this] {
    // The image passed every digest and shape check at open; a rebuild
    // failure here means the invariants above were violated.
    Result<ScTable> sc_table = catalog_.MaterializeScTable();
    PL_CHECK(sc_table.ok());
    Result<LabeledDocument> doc = LabeledDocument::FromCatalogRows(
        catalog_.MaterializeRows(), std::move(sc_table.value()),
        /*fingerprints_valid=*/true, "epoch view");
    PL_CHECK(doc.ok());
    // The document's label table is built lazily and not thread-safe:
    // build it here, under the once flag, before any caller can see it.
    doc->label_table();
    doc_ = std::make_unique<const LabeledDocument>(std::move(doc.value()));
  });
  return *doc_;
}

}  // namespace primelabel
