#ifndef PRIMELABEL_CORPUS_LABELED_DOCUMENT_H_
#define PRIMELABEL_CORPUS_LABELED_DOCUMENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/ordered_prime_scheme.h"
#include "durability/vfs.h"
#include "store/catalog.h"
#include "store/label_table.h"
#include "util/status.h"
#include "xml/tree.h"

namespace primelabel {

/// One-stop facade over the full pipeline: parse -> prime-label -> index ->
/// query -> update -> persist. The individual pieces (XmlTree,
/// OrderedPrimeScheme, LabelTable, the XPath planner, catalog) stay
/// available for callers who need control; this class wires them correctly
/// for the common case and keeps the label bookkeeping in sync with
/// mutations.
class LabeledDocument {
 public:
  /// Parses and labels a document (kParseError on malformed XML,
  /// kResourceExhausted past CheckLabelRoom). New documents take
  /// OrderedPrimeScheme's default SC group size, the paper's 5 (Fig. 18);
  /// loaded ones keep the size stored in their file.
  static Result<LabeledDocument> FromXml(std::string_view xml);
  /// Adopts an existing tree and labels it; aborts past CheckLabelRoom.
  static LabeledDocument FromTree(XmlTree tree);
  /// Ok when a tree of `nodes` nodes can be labeled, else
  /// kResourceExhausted: labeling draws one prime of the stream per node
  /// below the root, so a document holds at most PrimeSource::kLength + 1
  /// nodes. (It stays writable while CheckInsertRoom passes, which needs
  /// a little more room; see DurableDocumentStore::Create.)
  static Status CheckLabelRoom(std::size_t nodes);
  /// Restores a document persisted with Save: rebuilds the tree (tags,
  /// text, attributes) from the catalog rows and adopts the stored labels
  /// and SC records without relabeling anything — queries and further
  /// updates continue exactly where the saved document left off.
  static Result<LabeledDocument> Load(Vfs& vfs, const std::string& path);
  static Result<LabeledDocument> Load(const std::string& path) {
    return Load(DefaultVfs(), path);
  }

  /// Rebuilds a document from raw catalog rows (preorder, parent by row
  /// index) and an SC table — the shared tail of Load and of
  /// delta-snapshot recovery, which assembles the row set itself.
  /// `fingerprints_valid` says whether the rows' fingerprint fields can be
  /// adopted verbatim (else they are recomputed); `origin` names the
  /// source in error messages. A non-root self-label that is not a prime,
  /// that two rows share, or that no SC record holds fails with
  /// kCorruption naming the row, and an SC modulus that no row holds
  /// fails with kCorruption naming the modulus.
  static Result<LabeledDocument> FromCatalogRows(std::vector<CatalogRow> rows,
                                                 ScTable sc_table,
                                                 bool fingerprints_valid,
                                                 const std::string& origin);

  LabeledDocument(LabeledDocument&&) = default;
  LabeledDocument& operator=(LabeledDocument&&) = default;

  const XmlTree& tree() const { return *tree_; }
  const OrderedPrimeScheme& scheme() const { return *scheme_; }

  /// The query-ready tag-index table over the current tree. Built lazily:
  /// the first call after a mutation (or construction) rebuilds it and is
  /// NOT thread-safe; afterwards concurrent reads are safe. An epoch
  /// view's document() forces this build under its once flag, before the
  /// document is shared across sessions.
  const LabelTable& label_table() const { return table(); }

  /// Evaluates an XPath (Table 2 subset + attribute predicates + reverse
  /// axes) against the current labels through the planner (ExecuteXPath).
  /// Results in document order.
  Result<std::vector<NodeId>> Query(std::string_view xpath) const;

  // --- Updates (labels maintained incrementally) -------------------------

  /// Inserts a new element before/after `sibling` or as the last child of
  /// `parent`; labels it and updates the SC table.
  NodeId InsertBefore(NodeId sibling, std::string_view tag);
  NodeId InsertAfter(NodeId sibling, std::string_view tag);
  NodeId AppendChild(NodeId parent, std::string_view tag);
  /// Wraps `node` with a new parent element.
  NodeId Wrap(NodeId node, std::string_view tag);
  /// Detaches `node`'s subtree and releases its order bookkeeping.
  void Delete(NodeId node);

  /// Relabel cost (nodes + SC record updates) of the last update call.
  int last_update_cost() const { return last_update_cost_; }

  // --- Durability hooks (src/durability/) --------------------------------
  // The update journal records, per insert, the prime cursor it was
  // applied at plus the SC accounting it produced; replay restores the
  // cursor before re-applying the op, which makes every replayed label
  // bit-identical to the live run's.

  /// Stream index of the next fresh prime an insertion would draw.
  std::size_t prime_cursor() const { return scheme_->prime_cursor(); }
  /// Pins the prime cursor (journal replay only).
  void set_prime_cursor(std::size_t cursor) {
    scheme_->set_prime_cursor(cursor);
  }
  /// kResourceExhausted when an insert drawing from stream index `cursor`
  /// might run past the prime stream's bound (PrimeSource::kBound). An
  /// insert draws one prime for the new node plus one replacement
  /// self-label per node whose shifted order reaches its modulus, which
  /// only members of SC records at slack 0 can do, so 1 +
  /// ScTable::relabel_bound() primes must follow the cursor. The durable
  /// writer takes this check before every insert and replay takes it
  /// before pinning a journaled cursor; the in-memory insert calls above
  /// abort at the bound instead.
  Status CheckInsertRoom(std::size_t cursor) const;
  /// Restarts the SC table's max_order() from the orders still held, as a
  /// load of this document's catalog would (ScTable::RederiveMaxOrder).
  void RederiveScMaxOrder() { scheme_->RederiveScMaxOrder(); }
  /// SC-table accounting of the most recent insert (see
  /// OrderedPrimeScheme::last_sc_stats).
  const ScUpdateStats& last_sc_stats() const {
    return scheme_->last_sc_stats();
  }

  /// Persists the document (structure, attributes, labels, SC table) as a
  /// catalog file readable by Load and LoadCatalog.
  Status Save(Vfs& vfs, const std::string& path) const;
  Status Save(const std::string& path) const {
    return Save(DefaultVfs(), path);
  }

  /// The document as catalog rows: one row per attached node in preorder,
  /// parents by row index — the unit both full snapshots and delta
  /// snapshots are built from.
  std::vector<CatalogRow> ToCatalogRows() const;

 private:
  LabeledDocument() = default;
  explicit LabeledDocument(XmlTree tree);

  NodeId Finish(NodeId fresh);
  /// Lazily (re)builds the label table after mutations.
  const LabelTable& table() const;

  std::unique_ptr<XmlTree> tree_;
  std::unique_ptr<OrderedPrimeScheme> scheme_;
  mutable std::unique_ptr<LabelTable> table_;
  mutable bool table_dirty_ = true;
  int last_update_cost_ = 0;
};

/// Persists `doc` to `path` — the document-level catalog entry point
/// (equivalent to doc.Save(path)).
Status SaveCatalog(const std::string& path, const LabeledDocument& doc);

}  // namespace primelabel

#endif  // PRIMELABEL_CORPUS_LABELED_DOCUMENT_H_
