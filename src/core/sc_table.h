#ifndef PRIMELABEL_CORE_SC_TABLE_H_
#define PRIMELABEL_CORE_SC_TABLE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "bigint/bigint.h"
#include "core/crt.h"

namespace primelabel {

/// One record of the simultaneous-congruence table: a group of nodes whose
/// global order numbers are packed into a single SC value (Section 4.1,
/// Figure 10). The record keeps the (modulus, order) pairs so it can be
/// recomputed after updates. Persisted records (catalog v5, delta format
/// PLDELTA2) store the moduli and sc only: order(v) = sc mod self(v)
/// recovers the rest, and tests verify that identity.
struct ScRecord {
  std::vector<std::uint64_t> moduli;  ///< node self-labels in this group
  std::vector<std::uint64_t> orders;  ///< their global order numbers
  BigInt sc;                          ///< CRT solution over (moduli, orders)
  std::uint64_t max_modulus = 0;      ///< the paper's per-record max prime
};

/// Outcome of an order-sensitive insertion (the Figure 18 accounting).
struct ScUpdateStats {
  /// SC values recomputed; the paper counts each "as a node that requires
  /// re-labeling".
  int records_updated = 0;
  /// Nodes whose self-label had to be replaced because their shifted order
  /// number reached their modulus (order must stay below the self-label for
  /// `sc mod self` to recover it; see DESIGN.md).
  int nodes_relabeled = 0;
};

/// The simultaneous-congruence table: maintains the global document order
/// of prime-labeled nodes as a list of CRT values, so that an
/// order-sensitive insertion only rewrites the affected SC records instead
/// of relabeling nodes.
///
/// Requirements on self-labels: unique and pairwise coprime (the top-down
/// scheme's fresh primes satisfy both; Opt2 power-of-two leaf labels do
/// not, which is why the ordered scheme layers on the basic top-down
/// labeling — Section 4's examples do the same).
class ScTable {
 public:
  /// `group_size`: nodes per SC value. The paper's experiment uses 5; 1
  /// degenerates to storing each order directly, and a very large value
  /// degenerates to one global SC value (Figure 9).
  explicit ScTable(int group_size = 5);

  /// Reconstructs a table from previously persisted records (the catalog
  /// and delta load paths), adopting each record's stored SC value: no
  /// record is re-solved. A record stored without orders (v4/v5 images,
  /// PLDELTA2 deltas) gets them derived as sc mod modulus. Decoded bytes
  /// are not trusted, so the table passes exactly the records a re-solve
  /// would have reproduced: kCorruption when a modulus is below 2, a
  /// modulus appears twice anywhere in the table, two moduli of a record
  /// share a factor, a record's stored orders differ in count from its
  /// moduli, a stored order is not below its modulus or is not sc mod
  /// modulus, or sc is not in [0, product of the moduli), the one range
  /// Garner's recurrence solves into.
  static Result<ScTable> FromRecords(int group_size,
                                     std::vector<ScRecord> records);

  /// Builds the table from the nodes' self-labels in document order:
  /// selves[k] receives order number k+1 (the root, order 0, is not
  /// tracked).
  void Build(const std::vector<std::uint64_t>& selves);

  /// Global order number of the node with the given self-label, recovered
  /// as sc mod self (Section 4.1).
  std::uint64_t OrderOf(std::uint64_t self) const;

  /// True when `self` is tracked by some record.
  bool Contains(std::uint64_t self) const;

  /// Inserts a node with self-label `self` so that its global order number
  /// becomes `position` (1-based); every tracked node with order >=
  /// position shifts up by one. When a shifted node's order number reaches
  /// its modulus, `relabel(old_self)` must return a fresh, larger,
  /// coprime self-label for it (the ordered scheme hands out a fresh
  /// prime) and the node counts as relabeled. A record whose members all
  /// shift, none relabeled, is updated to sc + 1 in place — bit-identical
  /// to a re-solve; the rest of the touched records are re-solved.
  ScUpdateStats InsertAt(
      std::uint64_t self, std::uint64_t position,
      const std::function<std::uint64_t(std::uint64_t)>& relabel);

  /// Appends a node with the next order number (largest so far + 1).
  ScUpdateStats Append(std::uint64_t self);

  /// Removes a node's congruence. Orders of other nodes are untouched
  /// (deletion never requires relabeling, Section 4.2). Returns true if the
  /// self-label was tracked.
  bool Remove(std::uint64_t self);

  /// Number of tracked nodes.
  std::size_t size() const { return index_.size(); }
  /// The records, for inspection by tests and benches.
  const std::vector<ScRecord>& records() const { return records_; }
  int group_size() const { return group_size_; }

  /// Largest order number currently assigned (0 when empty).
  std::uint64_t max_order() const { return max_order_; }

  /// Full integrity check: every record's SC value recovers every stored
  /// order (`sc mod m == order`), moduli are unique across records, and
  /// the index maps each modulus to its slot. Used by tests and the CLI's
  /// `inspect` command.
  bool VerifyIntegrity() const;

 private:
  /// Recomputes a record's SC value and max_modulus from its pairs. The
  /// update paths keep the pairs solvable, and FromRecords adopts stored
  /// values without solving, so a failed solve is a bug (PL_CHECK).
  void Recompute(std::size_t record_index);
  /// Adds (self, order) to the last record, or a new record when full.
  /// Returns the index of the record touched.
  std::size_t Add(std::uint64_t self, std::uint64_t order);

  int group_size_;
  std::vector<ScRecord> records_;
  /// self-label -> (record index, slot within record).
  std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>>
      index_;
  std::uint64_t max_order_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_CORE_SC_TABLE_H_
