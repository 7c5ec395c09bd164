#ifndef PRIMELABEL_CORE_ORDERED_PRIME_SCHEME_H_
#define PRIMELABEL_CORE_ORDERED_PRIME_SCHEME_H_

#include <cstdint>
#include <string>

#include "core/sc_table.h"
#include "core/structure_oracle.h"
#include "labeling/prime_top_down.h"
#include "labeling/scheme.h"

namespace primelabel {

/// The paper's full contribution: top-down prime labeling plus a
/// simultaneous-congruence table that captures global document order
/// (Section 4).
///
/// Structure queries (ancestor/parent) come from divisibility of the prime
/// labels; order queries (preceding/following, sibling position) come from
/// order numbers recovered as `sc mod self-label`. Order-sensitive
/// insertion labels only the new node and rewrites the affected SC records
/// — the cheap update path Figure 18 demonstrates against interval and
/// prefix relabeling.
///
/// The relabel counts returned by HandleInsert follow the paper's
/// accounting: one per (re)labeled node plus one per SC record update.
///
/// Doubles as a live StructureOracle: the query pipeline (store/plan,
/// xpath/evaluator) consumes it through that interface only, so the same
/// plans also run against a LoadedCatalog restored from disk.
class OrderedPrimeScheme : public LabelingScheme, public StructureOracle {
 public:
  /// `sc_group_size`: nodes per SC value (the paper's Fig 18 uses 5).
  explicit OrderedPrimeScheme(int sc_group_size = 5);

  std::string_view name() const override;
  void LabelTree(const XmlTree& tree) override;
  /// Overrides both bases (identical signatures): divisibility ancestry.
  bool IsAncestor(NodeId ancestor, NodeId descendant) const override;
  bool IsParent(NodeId parent, NodeId child) const override;
  int LabelBits(NodeId id) const override;
  std::string LabelString(NodeId id) const override;
  /// The prime scheme's labels never encode order (the SC table does), so
  /// both ordering contracts run the same path: label the new node, then
  /// splice its order number into the SC table.
  int HandleInsert(NodeId new_node, InsertOrder order) override;

  /// Releases the SC congruences of a detached subtree. Remaining order
  /// numbers keep their (gapped) values, so order comparisons stay valid
  /// without any relabeling — the paper's "deletion does not affect any
  /// node ordering". Returns 0 (nothing is relabeled).
  int HandleDelete(NodeId node) override;

  // --- Order queries (Section 4.3) ---------------------------------------
  // Precedes/Follows come from StructureOracle's defaults on top of these.

  /// Global order number of a node (root = 0), recovered from the SC table.
  std::uint64_t OrderOf(NodeId id) const override;

  // --- Batch queries ------------------------------------------------------
  // All three forward to the batch kernels LoadedCatalog shares
  // (core/batch_kernels.h): fingerprint witnesses reject non-ancestor
  // pairs with zero BigInt work, and the divisor's reciprocal/Montgomery
  // constants are cached per anchor run so surviving tests are a word
  // remainder or one REDC sweep instead of full Knuth division. Results
  // are bit-identical to the scalar IsAncestor.

  void IsAncestorBatch(std::span<const std::pair<NodeId, NodeId>> pairs,
                       std::vector<std::uint8_t>* results) const override;
  void SelectDescendants(NodeId ancestor, std::span<const NodeId> candidates,
                         std::vector<NodeId>* out) const override;
  void SelectAncestors(NodeId descendant, std::span<const NodeId> candidates,
                       std::vector<NodeId>* out) const override;

  /// Adopts persisted labels and SC records (the restart path): installs
  /// them without relabeling anything, after which queries and updates
  /// behave exactly as if the scheme had labeled the tree itself. `fps`
  /// optionally carries persisted fingerprints (catalog format v3); when
  /// present and full-size the per-label recompute pass is skipped. Fails
  /// with kCorruption as PrimeTopDownScheme::Adopt does.
  Status Adopt(const XmlTree& tree, std::vector<BigInt> labels,
               std::vector<std::uint64_t> selves, ScTable sc_table,
               std::vector<LabelFingerprint> fps = {});

  /// Access to the underlying structural scheme and the SC table.
  const PrimeTopDownScheme& structure() const { return structure_; }
  const ScTable& sc_table() const { return sc_table_; }

  /// SC-table accounting of the most recent HandleInsert — how many SC
  /// records were rewritten and how many nodes drew replacement
  /// self-labels. The durability journal persists these alongside each
  /// insert so replay can cross-check that it rewrote exactly the same
  /// records the live run did.
  const ScUpdateStats& last_sc_stats() const { return last_sc_stats_; }

  /// Restarts the SC table's max_order() from the orders it holds (see
  /// ScTable::RederiveMaxOrder); a durable writer does so at each
  /// checkpoint.
  void RederiveScMaxOrder() { sc_table_.RederiveMaxOrder(); }

  /// Prime-cursor passthrough (see PrimeTopDownScheme::prime_cursor):
  /// recorded per journal frame and restored before replaying it, which
  /// pins every replayed label to the live run's bit pattern.
  std::size_t prime_cursor() const { return structure_.prime_cursor(); }
  void set_prime_cursor(std::size_t cursor) {
    structure_.set_prime_cursor(cursor);
  }

 private:
  /// Registers the new node's order number: document-order position of the
  /// node at insertion time, shifting followers. Returns SC accounting.
  ScUpdateStats RegisterOrder(NodeId new_node);

  PrimeTopDownScheme structure_;
  ScTable sc_table_;
  ScUpdateStats last_sc_stats_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_CORE_ORDERED_PRIME_SCHEME_H_
