#ifndef WIREBENCH_WORKLOAD_H_
#define WIREBENCH_WORKLOAD_H_

// Workload generation for the socket benchmark: the documents, the seeded
// per-connection request streams with their expected replies, and the
// writer's ordered-update mix. Everything here is a pure function of the
// workload and the seed; the system under test only ever sees the XML text,
// the request lines and the store calls.

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/durable_document_store.h"
#include "corpus/labeled_document.h"
#include "util/rng.h"
#include "xml/tree.h"

namespace wirebench {

using primelabel::NodeId;
using primelabel::XmlTree;

enum class WorkloadKind { kXpathCold, kOracleDeep, kLiveWrite };

bool ParseWorkload(const std::string& name, WorkloadKind* out);

/// The generated document: its XML text (all the store is given) and the
/// reference tree parsed from that same text. Ids of the reference equal
/// the ids a freshly created store assigns (both are parse order).
struct Corpus {
  std::string description;
  std::string xml;
  XmlTree reference;
};

/// Documents are fixed per workload (the paper's corpora); only request
/// streams and writer choices depend on the seed.
Corpus MakeCorpus(WorkloadKind kind);

enum class Verb { kSnap, kXpath, kIsAnc, kDesc, kAnc };

struct Request {
  Verb verb = Verb::kSnap;
  std::string line;   ///< the wire request
  std::string shape;  ///< mix label, e.g. "xpath.attr" or "DESC"
  /// The reply the reference predicts; empty when this request is not
  /// checked (a sampled check, or a workload whose state moves).
  std::string expected;
};

/// One connection's closed-loop stream: distinct requests and the order
/// they are sent in (indexes into `pool`).
struct Stream {
  std::vector<Request> pool;
  std::vector<std::uint32_t> order;
};

/// Minimum distance, in requests of one connection, between two uses of
/// the same XPath. Larger than the result (128) and plan (64) cache
/// capacities, so every repeat misses whatever the other connection does.
inline constexpr std::size_t kMinReuseDistance = 256;

/// xpath_cold: `count` queries of the nine Table 2 shapes, in equal shares,
/// over the plays of connection `conn` (disjoint play sets per connection).
/// `checked` distinct pool entries (a seeded sample) carry the tree-walk
/// answer.
Stream MakeXpathStream(const Corpus& corpus, int conn, std::uint64_t seed,
                       std::size_t count, std::size_t checked);

/// oracle_deep: ISANC (256 pairs) / DESC / ANC (1024 candidates) on random
/// ids; `pool_size` distinct requests cycled `count` times in total, every
/// one carrying its parent-chain-walk answer.
Stream MakeOracleStream(const Corpus& corpus, int conn, std::uint64_t seed,
                        std::size_t count, std::size_t pool_size);

/// live_write readers: SNAP every 16th request, otherwise a uniform draw
/// from a hot set of the nine Table 2 queries per connection (18 in all).
/// Unchecked — the state moves under them; the final snapshot is checked
/// instead.
Stream MakeHotStream(int conn, std::uint64_t seed, std::size_t count);

/// Expected reply lines, formatted as service/wire.h specifies.
std::string IdListReply(const std::vector<NodeId>& ids);

/// Parent-chain walk: true iff `ancestor` is a proper ancestor of `node`.
bool WalkIsAncestor(const XmlTree& tree, NodeId ancestor, NodeId node);

// --- Writer -----------------------------------------------------------------

enum class OpKind { kInsertBefore, kInsertAfter, kAppendChild, kWrap, kDelete };
const char* OpKindName(OpKind kind);

struct WriteOp {
  OpKind kind = OpKind::kInsertAfter;
  NodeId target = primelabel::kInvalidNodeId;
  std::string tag;
  NodeId fresh = primelabel::kInvalidNodeId;  ///< filled once applied
};

/// The paper's update experiments, one op of each kind per round of five:
///   1. InsertBefore the hot sibling, which then becomes the new node
///      (Fig. 18: a new act between Hamlet's acts; fully skewed, as in
///      tests/durability_test.cc). The first hot sibling is the root's
///      last element child, so only the tail of the document shifts.
///   2. InsertAfter a random element, with its tag (Fig. 16 leaf insert).
///   3. AppendChild to a random element (Fig. 16: a leaf gains a child).
///   4. Wrap a random element (Fig. 17 non-leaf update).
///   5. Delete the oldest node this writer inserted, other than the hot
///      sibling, which keeps the document's size bounded.
/// Random targets are the elements below the root's children present when
/// the plan starts; they never get detached (only inserted leaves are).
class WriterPlan {
 public:
  WriterPlan(std::uint64_t seed, const XmlTree& tree);

  /// Next op (target and tag chosen; fresh unset).
  WriteOp Next(const XmlTree& tree);
  /// Records an applied op's outcome (new deletable leaf, or one deleted).
  void Applied(const WriteOp& op);

 private:
  primelabel::Rng rng_;
  std::uint64_t ops_ = 0;
  NodeId hot_ = primelabel::kInvalidNodeId;
  std::vector<NodeId> targets_;
  std::vector<NodeId> deletable_;
};

/// Applies `op` through the durable store's journaled API; fills op->fresh.
primelabel::Status ApplyToStore(primelabel::DurableDocumentStore& store,
                                WriteOp* op);
/// Same op on an unjournaled document (the shadow timing in traced runs).
void ApplyToDocument(primelabel::LabeledDocument& doc, const WriteOp& op);
/// Same op on the plain model tree; false if the new id differs from the
/// one the store handed out.
bool ApplyToModel(XmlTree& model, const WriteOp& op);

}  // namespace wirebench

#endif  // WIREBENCH_WORKLOAD_H_
