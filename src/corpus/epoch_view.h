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
/// pair every snapshot query runs against, in one of two storage modes.
///
/// *Heap* mode wraps a fully materialized LabeledDocument — the shape
/// journal replay produces, and the only shape that can serve an epoch
/// with committed journal frames on top of its snapshot.
///
/// *Arena* mode wraps a LoadedCatalog (OpenCatalogMapped over a sealed
/// epoch's snapshot): labels, SC values and fingerprints stay in the
/// catalog image's columns — typically an mmap the kernel shares across
/// views — and only the row metadata (tags, parents, attributes) lives on
/// the heap, inside the LabelTable built from the catalog rows. No BigInt
/// is ever allocated on the query path.
///
/// Both modes answer through the same accessors, and NodeIds coincide
/// (preorder row index == rebuilt-tree arena index), so queries are
/// bit-identical by construction. document() bridges back to the heap
/// shape on demand — arena views materialize it lazily, at most once —
/// for callers that need the full facade (state digests, serialization).
///
/// Immutable after construction; every member is safe to call
/// concurrently. Shared across sessions via shared_ptr<const EpochView>.
class EpochView {
 public:
  /// Heap mode. The document's label table must already be built (the
  /// materializer forces it) so no lazy state is touched under sharing.
  explicit EpochView(LabeledDocument doc);

  /// Arena mode.
  explicit EpochView(LoadedCatalog catalog);

  EpochView(const EpochView&) = delete;
  EpochView& operator=(const EpochView&) = delete;

  bool arena_backed() const { return catalog_ != nullptr; }

  /// Rows in the view — equals the document's attached node count.
  std::size_t node_count() const;

  /// One past the largest NodeId the oracle can index: the row count of
  /// an arena view, the tree's arena size (detached slots included) of a
  /// heap view. The oracle's batch kernels do not bound-check ids, so
  /// callers holding untrusted ids check them against this first.
  std::size_t id_limit() const;

  /// The frozen structural oracle (ancestry, order, batched kernels).
  const StructureOracle& oracle() const;

  /// The query-ready tag-index table.
  const LabelTable& label_table() const;

  /// Resident bytes of the label store backing this view: arena views
  /// report the catalog image's column bytes (shared, not per-view);
  /// heap views report the per-view BigInt + fingerprint + SC footprint.
  std::size_t label_store_bytes() const;

  /// Evaluates an XPath against the frozen view through the planner
  /// (document order).
  Result<std::vector<NodeId>> Query(std::string_view xpath,
                                    int num_workers) const;

  /// The view as a full LabeledDocument. Heap views return their wrapped
  /// document; arena views materialize one from the catalog on first call
  /// (thread-safe, built at most once) — the image was digest-verified at
  /// open, so a failed rebuild here is a programming error and aborts.
  const LabeledDocument& document() const;

 private:
  /// Exactly one of catalog_ / doc_ is set at construction; arena views
  /// may additionally fill doc_ lazily through document().
  std::unique_ptr<LoadedCatalog> catalog_;
  std::unique_ptr<LabelTable> table_;  ///< arena mode only
  mutable std::once_flag doc_once_;
  mutable std::unique_ptr<const LabeledDocument> doc_;
  std::size_t heap_label_bytes_ = 0;  ///< heap mode, computed once
};

}  // namespace primelabel

#endif  // PRIMELABEL_CORPUS_EPOCH_VIEW_H_
