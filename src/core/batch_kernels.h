#ifndef PRIMELABEL_CORE_BATCH_KERNELS_H_
#define PRIMELABEL_CORE_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bigint/reduction.h"
#include "xml/tree.h"

namespace primelabel {

// The batched ancestry kernels behind both prime-label oracles: the live
// OrderedPrimeScheme (one BigInt per node) and LoadedCatalog (limb spans
// into a v5 image). Each kernel is a template over a label column — any
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
//   2. Each survivor is decided where it is found, by one
//      ReciprocalDivisor::Divides. When the anchor is the ancestor side
//      (IsAncestorBatch, whose join input arrives in anchor-major runs,
//      and SelectDescendants) the divisor is the anchor's label, assigned
//      once per anchor run; SelectAncestors flips the roles and re-points
//      the divisor at each candidate, tested against the anchor's label.
//
// Each kernel is one sequential sweep. Parallelism lives one level up, in
// the join executor's anchor fan-out (QueryContext::num_workers).

/// What a candidate is tested to be relative to its anchor, which fixes
/// the divisibility direction: an anchor's label divides its
/// descendants' labels, and its ancestors' labels divide its own.
enum class Relation { kDescendant, kAncestor };

namespace batch_internal {

/// The loop every kernel runs over items [0, count): pair_at(i) yields
/// item i's (anchor, candidate), and emit(i, related) receives the exact
/// verdict of every fingerprint survivor, in item order. Items the screen
/// rejects are not emitted.
template <Relation kCandidate, typename Column, typename PairAt,
          typename Emit>
void Sweep(const Column& column, std::size_t count, const PairAt& pair_at,
           const Emit& emit) {
  constexpr bool kAnchorDivides = kCandidate == Relation::kDescendant;
  ReciprocalDivisor divisor;
  NodeId anchor = kInvalidNodeId;
  LimbSpan anchor_label;
  for (std::size_t i = 0; i < count; ++i) {
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
      anchor = a;
      anchor_label = column.label(a);
      if constexpr (kAnchorDivides) divisor.Assign(anchor_label);
    }
    if constexpr (kAnchorDivides) {
      emit(i, divisor.Divides(column.label(c)));
    } else {
      divisor.Assign(column.label(c));
      emit(i, divisor.Divides(anchor_label));
    }
  }
}

}  // namespace batch_internal

/// StructureOracle::IsAncestorBatch over `column`.
template <typename Column>
void IsAncestorBatchKernel(const Column& column,
                           std::span<const std::pair<NodeId, NodeId>> pairs,
                           std::vector<std::uint8_t>* results) {
  results->assign(pairs.size(), 0);
  batch_internal::Sweep<Relation::kDescendant>(
      column, pairs.size(), [&](std::size_t i) { return pairs[i]; },
      [results](std::size_t i, bool ancestor) {
        (*results)[i] = ancestor ? 1 : 0;
      });
}

/// StructureOracle::SelectDescendants (kDescendant) and SelectAncestors
/// (kAncestor) over `column`: appends every candidate standing in that
/// relation to `anchor` to `out`, in candidate order.
template <Relation kCandidate, typename Column>
void SelectKernel(const Column& column, NodeId anchor,
                  std::span<const NodeId> candidates,
                  std::vector<NodeId>* out) {
  batch_internal::Sweep<kCandidate>(
      column, candidates.size(),
      [&](std::size_t i) { return std::pair(anchor, candidates[i]); },
      [&](std::size_t i, bool related) {
        if (related) out->push_back(candidates[i]);
      });
}

}  // namespace primelabel

#endif  // PRIMELABEL_CORE_BATCH_KERNELS_H_
