#ifndef PRIMELABEL_CORE_BATCH_KERNELS_H_
#define PRIMELABEL_CORE_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bigint/reduction.h"
#include "bigint/simd.h"
#include "util/thread_pool.h"
#include "xml/tree.h"

namespace primelabel {

// The batched ancestry kernels behind both prime-label oracles: the live
// OrderedPrimeScheme (one BigInt per node) and LoadedCatalog (limb spans
// into a v4 image). Each kernel is a template over a label column — any
// type providing
//
//   LimbSpan label(NodeId) const;
//   const LabelFingerprint& fingerprint(NodeId) const;
//
// — so the accessors inline into the loop, with no virtual call per
// candidate. All three kernels run one fast path:
//
//   1. Fingerprint witnesses reject almost every non-ancestor pair before
//      a candidate's label is read. FingerprintMayProperlyDivide compares
//      bit lengths strictly, so equal labels are rejected here as well.
//   2. Survivors buffer into lanes of one multi-dividend REDC sweep. When
//      the anchor is the ancestor side (IsAncestorBatch, whose join input
//      arrives in anchor-major runs, and SelectDescendants) its
//      ReciprocalDivisor is built once per anchor run; SelectAncestors
//      flips the roles (one dividend, many divisors) and sweeps through
//      DividesIntoBatch.
//   3. `shards` (StructureOracle::BatchShards) fans the input across a
//      private pool. Shards write disjoint result slots, or per-shard
//      buffers concatenated in shard order, so every worker count is
//      bit-identical to the sequential run.

using BatchShardRanges = std::vector<std::pair<std::size_t, std::size_t>>;

/// What a candidate is tested to be relative to its anchor, which fixes
/// the divisibility direction: an anchor's label divides its
/// descendants' labels, and its ancestors' labels divide its own.
enum class Relation { kDescendant, kAncestor };

namespace batch_internal {

/// The loop every kernel runs over items [begin, end): pair_at(i) yields
/// item i's (anchor, candidate), and emit(i, related) receives the exact
/// verdict of every fingerprint survivor, in item order. Items the screen
/// rejects are not emitted.
template <Relation kCandidate, typename Column, typename PairAt,
          typename Emit>
void SweepRange(const Column& column, std::size_t begin, std::size_t end,
                const PairAt& pair_at, const Emit& emit) {
  constexpr bool kAnchorDivides = kCandidate == Relation::kDescendant;
  ReciprocalDivisor divisor;
  NodeId anchor = kInvalidNodeId;
  LimbSpan anchor_label;
  LimbSpan lane_labels[simd::kRedcLanes];
  std::size_t lane_items[simd::kRedcLanes];
  bool lane_verdicts[simd::kRedcLanes];
  std::size_t pending = 0;
  auto flush = [&] {
    if (pending == 0) return;
    const std::span<const LimbSpan> lanes(lane_labels, pending);
    if constexpr (kAnchorDivides) {
      divisor.DividesBatch(lanes, lane_verdicts);
    } else {
      DividesIntoBatch(anchor_label, lanes, lane_verdicts);
    }
    for (std::size_t k = 0; k < pending; ++k) {
      emit(lane_items[k], lane_verdicts[k]);
    }
    pending = 0;
  };
  for (std::size_t i = begin; i < end; ++i) {
    const auto [a, c] = pair_at(i);
    if (a == c) continue;
    const LabelFingerprint& anchor_fp = column.fingerprint(a);
    const LabelFingerprint& candidate_fp = column.fingerprint(c);
    if (kAnchorDivides
            ? !FingerprintMayProperlyDivide(anchor_fp, candidate_fp)
            : !FingerprintMayProperlyDivide(candidate_fp, anchor_fp)) {
      continue;
    }
    if (a != anchor) {
      flush();  // pending lanes belong to the previous anchor
      anchor = a;
      anchor_label = column.label(a);
      if constexpr (kAnchorDivides) divisor.Assign(anchor_label);
    }
    lane_labels[pending] = column.label(c);
    lane_items[pending] = i;
    if (++pending == simd::kRedcLanes) flush();
  }
  flush();
}

/// Runs run(shard, begin, end) for every shard on a private pool.
template <typename Run>
void RunShards(const BatchShardRanges& shards, const Run& run) {
  ThreadPool pool(static_cast<int>(shards.size()));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    pool.Submit([&run, s, range = shards[s]] {
      run(s, range.first, range.second);
    });
  }
  pool.Wait();
}

}  // namespace batch_internal

/// StructureOracle::IsAncestorBatch over `column`.
template <typename Column>
void IsAncestorBatchKernel(const Column& column,
                           std::span<const std::pair<NodeId, NodeId>> pairs,
                           const BatchShardRanges& shards,
                           std::vector<std::uint8_t>* results) {
  results->assign(pairs.size(), 0);
  auto run = [&](std::size_t, std::size_t begin, std::size_t end) {
    batch_internal::SweepRange<Relation::kDescendant>(
        column, begin, end, [&](std::size_t i) { return pairs[i]; },
        [results](std::size_t i, bool ancestor) {
          (*results)[i] = ancestor ? 1 : 0;
        });
  };
  if (shards.empty()) {
    run(0, 0, pairs.size());
  } else {
    batch_internal::RunShards(shards, run);
  }
}

/// StructureOracle::SelectDescendants (kDescendant) and SelectAncestors
/// (kAncestor) over `column`: appends every candidate standing in that
/// relation to `anchor` to `out`, in candidate order.
template <Relation kCandidate, typename Column>
void SelectKernel(const Column& column, NodeId anchor,
                  std::span<const NodeId> candidates,
                  const BatchShardRanges& shards, std::vector<NodeId>* out) {
  auto run = [&](std::size_t begin, std::size_t end,
                 std::vector<NodeId>* dst) {
    batch_internal::SweepRange<kCandidate>(
        column, begin, end,
        [&](std::size_t i) { return std::pair(anchor, candidates[i]); },
        [&](std::size_t i, bool related) {
          if (related) dst->push_back(candidates[i]);
        });
  };
  if (shards.empty()) {
    run(0, candidates.size(), out);
    return;
  }
  std::vector<std::vector<NodeId>> parts(shards.size());
  batch_internal::RunShards(
      shards, [&](std::size_t s, std::size_t begin, std::size_t end) {
        run(begin, end, &parts[s]);
      });
  for (const auto& part : parts) {
    out->insert(out->end(), part.begin(), part.end());
  }
}

}  // namespace primelabel

#endif  // PRIMELABEL_CORE_BATCH_KERNELS_H_
