#include "core/ordered_prime_scheme.h"

#include <unordered_map>

#include "bigint/reduction.h"
#include "bigint/simd.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace primelabel {

OrderedPrimeScheme::OrderedPrimeScheme(int sc_group_size)
    : sc_table_(sc_group_size) {}

std::string_view OrderedPrimeScheme::name() const { return "prime-ordered"; }

void OrderedPrimeScheme::set_num_workers(int n) {
  PL_CHECK(n >= 1);
  num_workers_ = n;
  structure_.set_num_workers(n);
}

void OrderedPrimeScheme::LabelTree(const XmlTree& tree) {
  set_tree(tree);
  structure_.LabelTree(tree);
  // Document order: the k-th non-root node in preorder has order number k.
  std::vector<std::uint64_t> selves;
  selves.reserve(tree.node_count());
  tree.Preorder([&](NodeId id, int depth) {
    if (depth > 0) selves.push_back(structure_.self_label(id));
  });
  if (num_workers_ > 1) {
    ThreadPool pool(num_workers_);
    sc_table_.Build(selves, &pool);
  } else {
    sc_table_.Build(selves);
  }
}

void OrderedPrimeScheme::Adopt(const XmlTree& tree, std::vector<BigInt> labels,
                               std::vector<std::uint64_t> selves,
                               ScTable sc_table,
                               std::vector<LabelFingerprint> fps) {
  set_tree(tree);
  structure_.Adopt(tree, std::move(labels), std::move(selves), std::move(fps));
  sc_table_ = std::move(sc_table);
}

bool OrderedPrimeScheme::IsAncestor(NodeId ancestor, NodeId descendant) const {
  return structure_.IsAncestor(ancestor, descendant);
}

bool OrderedPrimeScheme::IsParent(NodeId parent, NodeId child) const {
  return structure_.IsParent(parent, child);
}

int OrderedPrimeScheme::LabelBits(NodeId id) const {
  return structure_.LabelBits(id);
}

std::string OrderedPrimeScheme::LabelString(NodeId id) const {
  return structure_.LabelString(id) + " order=" +
         std::to_string(OrderOf(id));
}

std::uint64_t OrderedPrimeScheme::OrderOf(NodeId id) const {
  if (id == tree()->root()) return 0;
  return sc_table_.OrderOf(structure_.self_label(id));
}

void OrderedPrimeScheme::IsAncestorBatch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    std::vector<std::uint8_t>* results) const {
  // Layer 1: fingerprint witnesses dispose of almost every non-ancestor
  // pair with zero BigInt work. Layer 2: the join kernels emit pairs in
  // anchor-major runs, so the reciprocal/Montgomery constants of a
  // divisor are computed once per run, not once per pair — and survivors
  // of one run share that divisor, so they buffer into lanes of one
  // multi-dividend REDC sweep (DividesBatch vectorizes 4 dividends when
  // the batch fills). All reduction state is per-range, and ranges write
  // disjoint result slots — so a sharded run is bit-identical to the
  // sequential one.
  results->assign(pairs.size(), 0);
  auto run = [this, pairs, results](std::size_t begin, std::size_t end) {
    ReciprocalDivisor cached;
    NodeId cached_ancestor = kInvalidNodeId;
    const BigInt* lane_labels[simd::kRedcLanes];
    std::size_t lane_slots[simd::kRedcLanes];
    bool lane_verdicts[simd::kRedcLanes];
    std::size_t pending = 0;
    auto flush = [&] {
      if (pending == 0) return;
      cached.DividesBatch(
          std::span<const BigInt* const>(lane_labels, pending),
          lane_verdicts);
      for (std::size_t k = 0; k < pending; ++k) {
        (*results)[lane_slots[k]] = lane_verdicts[k] ? 1 : 0;
      }
      pending = 0;
    };
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [ancestor, descendant] = pairs[i];
      if (ancestor == descendant ||
          !FingerprintMayProperlyDivide(structure_.fingerprint(ancestor),
                                        structure_.fingerprint(descendant))) {
        continue;  // slot already 0
      }
      if (ancestor != cached_ancestor) {
        flush();  // pending lanes belong to the previous divisor
        cached.Assign(structure_.label(ancestor));
        cached_ancestor = ancestor;
      }
      lane_labels[pending] = &structure_.label(descendant);
      lane_slots[pending] = i;
      if (++pending == simd::kRedcLanes) flush();
    }
    flush();
  };
  const auto shards = BatchShards(pairs.size());
  if (shards.empty()) {
    run(0, pairs.size());
    return;
  }
  ThreadPool pool(static_cast<int>(shards.size()));
  for (const auto& [begin, end] : shards) {
    pool.Submit([&run, begin = begin, end = end] { run(begin, end); });
  }
  pool.Wait();
}

void OrderedPrimeScheme::SelectDescendants(NodeId ancestor,
                                           std::span<const NodeId> candidates,
                                           std::vector<NodeId>* out) const {
  // One divisor, many dividends: the ideal batched-REDC shape. Each shard
  // assigns its own reciprocal, buffers fingerprint survivors into lanes
  // of one multi-dividend sweep, and collects into its own buffer;
  // buffers concatenate in shard order, preserving candidate order.
  const LabelFingerprint& ancestor_fp = structure_.fingerprint(ancestor);
  auto run = [this, ancestor, candidates, &ancestor_fp](
                 std::size_t begin, std::size_t end, std::vector<NodeId>* dst) {
    ReciprocalDivisor cached;
    cached.Assign(structure_.label(ancestor));
    const BigInt* lane_labels[simd::kRedcLanes];
    NodeId lane_nodes[simd::kRedcLanes];
    bool lane_verdicts[simd::kRedcLanes];
    std::size_t pending = 0;
    auto flush = [&] {
      if (pending == 0) return;
      cached.DividesBatch(
          std::span<const BigInt* const>(lane_labels, pending),
          lane_verdicts);
      for (std::size_t k = 0; k < pending; ++k) {
        if (lane_verdicts[k]) dst->push_back(lane_nodes[k]);
      }
      pending = 0;
    };
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId candidate = candidates[i];
      if (candidate == ancestor) continue;
      if (!FingerprintMayProperlyDivide(ancestor_fp,
                                        structure_.fingerprint(candidate))) {
        continue;
      }
      lane_labels[pending] = &structure_.label(candidate);
      lane_nodes[pending] = candidate;
      if (++pending == simd::kRedcLanes) flush();
    }
    flush();
  };
  const auto shards = BatchShards(candidates.size());
  if (shards.empty()) {
    run(0, candidates.size(), out);
    return;
  }
  std::vector<std::vector<NodeId>> parts(shards.size());
  ThreadPool pool(static_cast<int>(shards.size()));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    pool.Submit([&run, &parts, s, begin = shards[s].first,
                 end = shards[s].second] { run(begin, end, &parts[s]); });
  }
  pool.Wait();
  for (const auto& part : parts) out->insert(out->end(), part.begin(), part.end());
}

void OrderedPrimeScheme::SelectAncestors(NodeId descendant,
                                         std::span<const NodeId> candidates,
                                         std::vector<NodeId>* out) const {
  // The ancestor axis inverts the roles: one dividend, many divisors, so
  // there is no reciprocal to share — but fingerprints still reject nearly
  // all candidates (any tracked prime of the candidate missing from the
  // descendant is a witness), and the survivors batch through
  // DividesIntoBatch, which interleaves the per-divisor REDC sweeps over
  // the shared dividend.
  const BigInt& descendant_label = structure_.label(descendant);
  const LabelFingerprint& descendant_fp = structure_.fingerprint(descendant);
  auto run = [this, descendant, candidates, &descendant_label, &descendant_fp](
                 std::size_t begin, std::size_t end, std::vector<NodeId>* dst) {
    const BigInt* lane_labels[simd::kRedcLanes];
    NodeId lane_nodes[simd::kRedcLanes];
    bool lane_verdicts[simd::kRedcLanes];
    std::size_t pending = 0;
    auto flush = [&] {
      if (pending == 0) return;
      DividesIntoBatch(descendant_label,
                       std::span<const BigInt* const>(lane_labels, pending),
                       lane_verdicts);
      for (std::size_t k = 0; k < pending; ++k) {
        if (lane_verdicts[k]) dst->push_back(lane_nodes[k]);
      }
      pending = 0;
    };
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId candidate = candidates[i];
      if (candidate == descendant) continue;
      if (!FingerprintMayProperlyDivide(structure_.fingerprint(candidate),
                                        descendant_fp)) {
        continue;
      }
      lane_labels[pending] = &structure_.label(candidate);
      lane_nodes[pending] = candidate;
      if (++pending == simd::kRedcLanes) flush();
    }
    flush();
  };
  const auto shards = BatchShards(candidates.size());
  if (shards.empty()) {
    run(0, candidates.size(), out);
    return;
  }
  std::vector<std::vector<NodeId>> parts(shards.size());
  ThreadPool pool(static_cast<int>(shards.size()));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    pool.Submit([&run, &parts, s, begin = shards[s].first,
                 end = shards[s].second] { run(begin, end, &parts[s]); });
  }
  pool.Wait();
  for (const auto& part : parts) out->insert(out->end(), part.begin(), part.end());
}

ScUpdateStats OrderedPrimeScheme::RegisterOrder(NodeId new_node) {
  // The node slots in right after its document-order predecessor:
  // position = order(predecessor) + 1, and followers shift up by one.
  // (Deriving the position from the predecessor's *order number* rather
  // than a preorder count keeps insertion correct after deletions, which
  // leave gaps in the order sequence.)
  PL_CHECK(!tree()->IsDetached(new_node));
  NodeId predecessor = tree()->PreorderPredecessor(new_node);
  PL_CHECK(predecessor != kInvalidNodeId);  // the root precedes everything
  std::uint64_t position = OrderOf(predecessor) + 1;

  int structural_relabels = 0;
  auto relabel = [&](std::uint64_t old_self) -> std::uint64_t {
    // Map the stale self-label back to its node, then hand out a fresh
    // prime through the structural scheme (which relabels the subtree).
    NodeId victim = kInvalidNodeId;
    tree()->Preorder([&](NodeId id, int depth) {
      if (depth > 0 && victim == kInvalidNodeId &&
          structure_.self_label(id) == old_self) {
        victim = id;
      }
    });
    PL_CHECK(victim != kInvalidNodeId);
    return structure_.ReplaceSelf(victim, &structural_relabels);
  };

  ScUpdateStats stats =
      sc_table_.InsertAt(structure_.self_label(new_node), position, relabel);
  stats.nodes_relabeled += structural_relabels;
  return stats;
}

int OrderedPrimeScheme::HandleDelete(NodeId node) {
  PL_CHECK(tree() != nullptr);
  // The subtree is detached but its arena slots (and self-labels) remain
  // readable; drop every congruence it contributed.
  tree()->PreorderFrom(node, 0, [&](NodeId id, int) {
    sc_table_.Remove(structure_.self_label(id));
  });
  return 0;
}

int OrderedPrimeScheme::HandleInsert(NodeId new_node, InsertOrder) {
  PL_CHECK(tree() != nullptr);
  int count = structure_.HandleInsert(new_node, InsertOrder::kUnordered);
  ScUpdateStats stats = RegisterOrder(new_node);
  last_sc_stats_ = stats;
  // Paper accounting (Section 5.4): each SC record update counts as one
  // relabeled node, plus any nodes whose self-label had to be replaced.
  return count + stats.records_updated + stats.nodes_relabeled;
}

}  // namespace primelabel
