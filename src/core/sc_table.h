#ifndef PRIMELABEL_CORE_SC_TABLE_H_
#define PRIMELABEL_CORE_SC_TABLE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bigint/bigint.h"
#include "core/crt.h"

namespace primelabel {

/// One record of the simultaneous-congruence table: a group of nodes whose
/// global order numbers are packed into a single SC value (Section 4.1,
/// Figure 10). A record holds the moduli and sc only, in memory as on disk
/// (catalog v5, delta format PLDELTA2): order(v) = sc mod self(v) recovers
/// each order, as the paper does.
struct ScRecord {
  std::vector<std::uint64_t> moduli;  ///< node self-labels in this group
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
  /// record is re-solved, and each order is derived as sc mod modulus.
  /// Decoded bytes are not trusted, so the table passes exactly the records
  /// a re-solve would have reproduced: kCorruption when a modulus is below
  /// 2, a modulus appears twice anywhere in the table, two moduli of a
  /// record share a factor, a record holds more moduli than `group_size`,
  /// or sc is not in [0, product of the moduli), the one range Garner's
  /// recurrence solves into (so an emptied record must hold 0). Formats
  /// that also store orders check them against sc where they decode them
  /// (DecodeScRecord).
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
  /// prime) and the node counts as relabeled. One pass over the order
  /// bounds skips every record wholly before `position`, and bumps a
  /// record wholly after it with slack left to sc + 1 in place, which is
  /// bit-identical to a re-solve (DESIGN.md §18). Only a record that
  /// straddles `position`, one at slack 0, and the record the new node
  /// joins have their orders derived and are re-solved.
  ScUpdateStats InsertAt(
      std::uint64_t self, std::uint64_t position,
      const std::function<std::uint64_t(std::uint64_t)>& relabel);

  /// Removes a node's congruence. Orders of other nodes are untouched
  /// (deletion never requires relabeling, Section 4.2). Returns true if the
  /// self-label was tracked.
  bool Remove(std::uint64_t self);

  /// Number of tracked nodes.
  std::size_t size() const { return index_.size(); }
  /// The records, for inspection by tests and benches.
  const std::vector<ScRecord>& records() const { return records_; }
  int group_size() const { return group_size_; }

  /// Largest order number assigned since the table was built, loaded or
  /// last passed to RederiveMaxOrder (0 when empty). Remove does not lower
  /// it.
  std::uint64_t max_order() const { return max_order_; }

  /// Lowers max_order() to the largest order still held, the value
  /// FromRecords derives. A durable writer keeps its table across a
  /// checkpoint while a replay of the new epoch starts from FromRecords,
  /// so the writer calls this when it seals an epoch.
  void RederiveMaxOrder();

  /// Most self-labels one InsertAt can replace. A shift replaces a member
  /// only when its order reaches its modulus, which takes slack 0, so only
  /// records at slack 0 can lose members, each at most group_size().
  std::size_t relabel_bound() const {
    return static_cast<std::size_t>(group_size_) * records_at_slack_zero_;
  }

  /// Full integrity check: moduli are unique across records, the index
  /// maps each modulus to its slot, every SC value lies below its moduli's
  /// product, and the order bounds equal those re-derived from sc mod m.
  /// Used by tests, the CLI's `inspect` command and the durable store
  /// demo's `verify`.
  bool VerifyIntegrity() const;

 private:
  /// Order bounds of one record: its smallest and largest order, and its
  /// slack, the least m - 1 - order over its members. An emptied record
  /// has lowest = slack = UINT64_MAX and highest = 0, so every InsertAt
  /// skips it and it never counts as at slack 0.
  struct Bounds {
    std::uint64_t lowest = ~std::uint64_t{0};
    std::uint64_t highest = 0;
    std::uint64_t slack = ~std::uint64_t{0};
  };
  static Bounds BoundsOf(std::span<const Congruence> pairs);

  /// Appends record r's (modulus, order) pairs to `pairs`, each order
  /// derived as sc mod modulus.
  void DerivePairs(std::size_t r, std::vector<Congruence>* pairs) const;
  /// Solves `pairs` (record r's moduli, in slot order, with their orders)
  /// into record r's SC value, max_modulus and bounds. The update paths
  /// keep the pairs solvable, so a failed solve is a bug (PL_CHECK).
  void Solve(std::size_t r, const std::vector<Congruence>& pairs);
  /// Stores record r's bounds and keeps records_at_slack_zero_ in step.
  void SetBounds(std::size_t r, const Bounds& bounds);

  int group_size_;
  std::vector<ScRecord> records_;
  /// Record r's bounds, in three flat arrays beside records_ so that
  /// InsertAt's pass reads only what it needs.
  std::vector<std::uint64_t> lowest_;
  std::vector<std::uint64_t> highest_;
  std::vector<std::uint64_t> slack_;
  std::size_t records_at_slack_zero_ = 0;
  /// self-label -> (record index, slot within record).
  std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>>
      index_;
  std::uint64_t max_order_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_CORE_SC_TABLE_H_
