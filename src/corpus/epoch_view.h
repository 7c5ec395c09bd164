#ifndef PRIMELABEL_CORPUS_EPOCH_VIEW_H_
#define PRIMELABEL_CORPUS_EPOCH_VIEW_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "corpus/labeled_document.h"
#include "store/catalog.h"
#include "store/label_table.h"
#include "util/status.h"

namespace primelabel {

/// A frozen epoch's read surface: the (label table, structure oracle)
/// pair every snapshot query runs against, served from a v5 catalog image.
///
/// The image is either the sealed epoch's snapshot, mmapped and shared
/// across views, or an owned image the store encoded from a replayed
/// document (LoadedCatalog::FromRows). Labels, SC values and fingerprints
/// stay in the image's columns; only the row metadata (tags, parents,
/// attributes) and the order column live on the heap. No BigInt is ever
/// allocated on the query path.
///
/// NodeIds are row indexes, which are the preorder ranks of the pinned
/// point: the id range is exactly [0, node_count()), and every id in it
/// is an attached node. document() bridges back to the heap shape on
/// demand, built lazily and at most once, for callers that need the full
/// facade (state digests, serialization); its NodeIds are the same.
///
/// Immutable after construction; every member is safe to call
/// concurrently. Shared across sessions via shared_ptr<const EpochView>.
class EpochView {
 public:
  explicit EpochView(LoadedCatalog catalog);

  EpochView(const EpochView&) = delete;
  EpochView& operator=(const EpochView&) = delete;

  /// Rows in the view — the pinned point's attached node count, and one
  /// past its largest NodeId. The oracle's batch kernels do not
  /// bound-check ids, so callers holding untrusted ids check them against
  /// this first.
  std::size_t node_count() const { return catalog_.row_count(); }

  /// The frozen structural oracle (ancestry, order, batched kernels).
  const StructureOracle& oracle() const { return catalog_; }

  /// The query-ready tag-index table.
  const LabelTable& label_table() const { return table_; }

  /// Resident bytes of the label store backing this view: the image's
  /// label, SC value and fingerprint columns plus its order column (see
  /// LoadedCatalog::label_store_bytes).
  std::size_t label_store_bytes() const {
    return catalog_.label_store_bytes();
  }

  /// Evaluates an XPath against the frozen view through the planner
  /// (document order).
  Result<std::vector<NodeId>> Query(std::string_view xpath,
                                    int num_workers) const;

  /// The view as a full LabeledDocument, with its label table built,
  /// materialized from the image on first call (thread-safe, built at most
  /// once). The image passed every digest and shape check when it was
  /// opened, so a failed rebuild here is a programming error and aborts.
  const LabeledDocument& document() const;

 private:
  LoadedCatalog catalog_;
  LabelTable table_;
  mutable std::once_flag doc_once_;
  mutable std::unique_ptr<const LabeledDocument> doc_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_CORPUS_EPOCH_VIEW_H_
