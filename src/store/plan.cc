#include "store/plan.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/status.h"
#include "util/thread_pool.h"

namespace primelabel {

namespace {

/// Shared shape of the child/parent joins (no batch entry point for the
/// parent predicate): candidate-major nested loop with early break.
template <typename Predicate>
std::vector<NodeId> JoinWith(const QueryContext& ctx,
                             const std::vector<NodeId>& context,
                             const std::vector<NodeId>& candidates,
                             Predicate&& related) {
  std::vector<NodeId> out;
  ctx.stats.rows_scanned += candidates.size();
  for (NodeId candidate : candidates) {
    for (NodeId anchor : context) {
      ++ctx.stats.label_tests;
      if (related(anchor, candidate)) {
        out.push_back(candidate);
        break;
      }
    }
  }
  return out;
}

/// One sequential anchor run over `anchors`: flags matched candidates in
/// `matched` (preset to all-zero, one slot per candidate) and returns the
/// label-test count instead of touching ctx.stats — the parallel caller
/// runs several of these on pool workers and must not race the counters.
template <typename PairOf>
std::uint64_t JoinBatchedRun(const QueryContext& ctx,
                             std::span<const NodeId> anchors,
                             const std::vector<NodeId>& candidates,
                             PairOf&& pair_of,
                             std::vector<std::uint8_t>* matched) {
  std::uint64_t label_tests = 0;
  std::size_t unmatched = candidates.size();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<std::size_t> positions;
  std::vector<std::uint8_t> results;
  for (NodeId anchor : anchors) {
    if (unmatched == 0) break;
    pairs.clear();
    positions.clear();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if ((*matched)[i]) continue;
      pairs.push_back(pair_of(anchor, candidates[i]));
      positions.push_back(i);
    }
    label_tests += pairs.size();
    ctx.oracle->IsAncestorBatch(pairs, &results);
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (results[j]) {
        (*matched)[positions[j]] = 1;
        --unmatched;
      }
    }
  }
  return label_tests;
}

/// A parallel join fan below this many (anchor, candidate) pairs is not
/// worth the thread startup.
constexpr std::size_t kMinJoinPairsParallel = 2048;

/// Anchor-major batched join over IsAncestorBatch. Equivalent to the
/// candidate-major early-break nested loop in both output and label-test
/// count: a candidate whose first matching anchor has index i is tested
/// exactly i+1 times either way (anchors 0..i here, because it leaves the
/// unmatched set once anchor i claims it), and an unmatched candidate is
/// tested |context| times by both. Output preserves candidate order.
/// `pair_of` orients each (anchor, candidate) pair for the oracle.
///
/// With ctx.num_workers > 1 the context splits into contiguous anchor
/// groups, one pool worker each; every group keeps a private matched
/// bitmap, OR-merged after the fan. The matched set is the union over
/// anchors either way, so output (values and ordering) is identical to
/// the sequential run; only label_tests can grow, because groups cannot
/// see each other's matches (noted on QueryContext::num_workers).
template <typename PairOf>
std::vector<NodeId> JoinBatched(const QueryContext& ctx,
                                const std::vector<NodeId>& context,
                                const std::vector<NodeId>& candidates,
                                PairOf&& pair_of) {
  std::vector<NodeId> out;
  ctx.stats.rows_scanned += candidates.size();
  std::vector<std::uint8_t> matched(candidates.size(), 0);
  const std::size_t groups =
      std::min<std::size_t>(ctx.num_workers < 1 ? 1 : ctx.num_workers,
                            context.size());
  if (groups <= 1 || ThreadPool::InWorkerThread() ||
      context.size() * candidates.size() < kMinJoinPairsParallel) {
    ctx.stats.label_tests +=
        JoinBatchedRun(ctx, context, candidates, pair_of, &matched);
  } else {
    std::vector<std::vector<std::uint8_t>> group_matched(
        groups, std::vector<std::uint8_t>(candidates.size(), 0));
    std::vector<std::uint64_t> group_tests(groups, 0);
    const std::size_t base = context.size() / groups;
    const std::size_t extra = context.size() % groups;
    ThreadPool pool(static_cast<int>(groups));
    std::size_t begin = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t end = begin + base + (g < extra ? 1 : 0);
      std::span<const NodeId> anchors(context.data() + begin, end - begin);
      pool.Submit([&ctx, &candidates, &pair_of, &group_matched, &group_tests,
                   anchors, g] {
        group_tests[g] = JoinBatchedRun(ctx, anchors, candidates, pair_of,
                                        &group_matched[g]);
      });
      begin = end;
    }
    pool.Wait();
    for (std::size_t g = 0; g < groups; ++g) {
      ctx.stats.label_tests += group_tests[g];
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (group_matched[g][i]) matched[i] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (matched[i]) out.push_back(candidates[i]);
  }
  return out;
}

/// Order numbers of the (small) context set, computed once per operator —
/// the SQL translation would likewise materialize the context side of the
/// join before scanning candidates.
std::vector<std::uint64_t> AnchorOrders(const QueryContext& ctx,
                                        const std::vector<NodeId>& context) {
  std::vector<std::uint64_t> orders;
  orders.reserve(context.size());
  for (NodeId anchor : context) {
    orders.push_back(ctx.oracle->OrderOf(anchor));
    ++ctx.stats.order_lookups;
  }
  return orders;
}

}  // namespace

std::vector<NodeId> JoinDescendants(const QueryContext& ctx,
                                    const std::vector<NodeId>& context,
                                    const std::vector<NodeId>& candidates) {
  if (context.size() == 1) {
    // Single anchor — the common case after a rooted first step: one
    // SelectDescendants sweep, no pair assembly.
    ctx.stats.rows_scanned += candidates.size();
    ctx.stats.label_tests += candidates.size();
    std::vector<NodeId> out;
    ctx.oracle->SelectDescendants(context[0], candidates, &out);
    return out;
  }
  return JoinBatched(ctx, context, candidates, [](NodeId a, NodeId c) {
    return std::pair<NodeId, NodeId>(a, c);
  });
}

std::vector<NodeId> JoinChildren(const QueryContext& ctx,
                                 const std::vector<NodeId>& context,
                                 const std::vector<NodeId>& candidates) {
  return JoinWith(ctx, context, candidates, [&](NodeId a, NodeId c) {
    return ctx.oracle->IsParent(a, c);
  });
}

std::vector<NodeId> JoinAncestors(const QueryContext& ctx,
                                  const std::vector<NodeId>& context,
                                  const std::vector<NodeId>& candidates) {
  if (context.size() == 1) {
    // Single anchor — one SelectAncestors sweep over the candidates, so
    // the oracle's fingerprint filter sees the whole scan (same output
    // and label-test count as the batched pair loop below).
    ctx.stats.rows_scanned += candidates.size();
    ctx.stats.label_tests += candidates.size();
    std::vector<NodeId> out;
    ctx.oracle->SelectAncestors(context[0], candidates, &out);
    return out;
  }
  // Candidate above anchor: orient the batch pairs (candidate, anchor).
  return JoinBatched(ctx, context, candidates, [](NodeId a, NodeId c) {
    return std::pair<NodeId, NodeId>(c, a);
  });
}

std::vector<NodeId> JoinParents(const QueryContext& ctx,
                                const std::vector<NodeId>& context,
                                const std::vector<NodeId>& candidates) {
  return JoinWith(ctx, context, candidates, [&](NodeId a, NodeId c) {
    return ctx.oracle->IsParent(c, a);
  });
}

std::vector<NodeId> SelectFollowing(const QueryContext& ctx,
                                    const std::vector<NodeId>& context,
                                    const std::vector<NodeId>& candidates) {
  std::vector<NodeId> out;
  ctx.stats.rows_scanned += candidates.size();
  std::vector<std::uint64_t> anchor_orders = AnchorOrders(ctx, context);
  for (NodeId candidate : candidates) {
    std::uint64_t candidate_order = ctx.oracle->OrderOf(candidate);
    ++ctx.stats.order_lookups;
    for (std::size_t i = 0; i < context.size(); ++i) {
      if (candidate_order <= anchor_orders[i]) continue;
      // Following excludes descendants of the anchor.
      ++ctx.stats.label_tests;
      if (ctx.oracle->IsAncestor(context[i], candidate)) continue;
      out.push_back(candidate);
      break;
    }
  }
  return out;
}

std::vector<NodeId> SelectPreceding(const QueryContext& ctx,
                                    const std::vector<NodeId>& context,
                                    const std::vector<NodeId>& candidates) {
  std::vector<NodeId> out;
  ctx.stats.rows_scanned += candidates.size();
  std::vector<std::uint64_t> anchor_orders = AnchorOrders(ctx, context);
  for (NodeId candidate : candidates) {
    std::uint64_t candidate_order = ctx.oracle->OrderOf(candidate);
    ++ctx.stats.order_lookups;
    for (std::size_t i = 0; i < context.size(); ++i) {
      if (candidate_order >= anchor_orders[i]) continue;
      // Preceding excludes ancestors of the anchor.
      ++ctx.stats.label_tests;
      if (ctx.oracle->IsAncestor(candidate, context[i])) continue;
      out.push_back(candidate);
      break;
    }
  }
  return out;
}

namespace {

std::vector<NodeId> SelectSiblings(const QueryContext& ctx,
                                   const std::vector<NodeId>& context,
                                   const std::vector<NodeId>& candidates,
                                   bool following) {
  std::vector<NodeId> out;
  ctx.stats.rows_scanned += candidates.size();
  std::vector<std::uint64_t> anchor_orders = AnchorOrders(ctx, context);
  for (NodeId candidate : candidates) {
    std::uint64_t candidate_order = ctx.oracle->OrderOf(candidate);
    ++ctx.stats.order_lookups;
    for (std::size_t i = 0; i < context.size(); ++i) {
      NodeId anchor = context[i];
      if (candidate == anchor) continue;
      if (ctx.table->ParentOf(candidate) != ctx.table->ParentOf(anchor)) {
        continue;
      }
      bool matches = following ? candidate_order > anchor_orders[i]
                               : candidate_order < anchor_orders[i];
      if (matches) {
        out.push_back(candidate);
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<NodeId> SelectFollowingSiblings(
    const QueryContext& ctx, const std::vector<NodeId>& context,
    const std::vector<NodeId>& candidates) {
  return SelectSiblings(ctx, context, candidates, /*following=*/true);
}

std::vector<NodeId> SelectPrecedingSiblings(
    const QueryContext& ctx, const std::vector<NodeId>& context,
    const std::vector<NodeId>& candidates) {
  return SelectSiblings(ctx, context, candidates, /*following=*/false);
}

std::vector<NodeId> PositionFilter(const QueryContext& ctx,
                                   const std::vector<NodeId>& nodes, int n) {
  PL_CHECK(n >= 1);
  // Group by parent row, keeping first-seen parent order stable.
  std::unordered_map<NodeId, std::size_t> group_of;
  std::vector<std::vector<std::pair<std::uint64_t, NodeId>>> groups;
  for (NodeId node : nodes) {
    NodeId parent = ctx.table->ParentOf(node);
    auto [it, inserted] = group_of.emplace(parent, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].emplace_back(ctx.oracle->OrderOf(node), node);
    ++ctx.stats.order_lookups;
  }
  // Sort each group by order number and keep the n-th (Section 4.3's
  // "sorted first according to their order numbers" strategy).
  std::vector<NodeId> out;
  for (auto& members : groups) {
    std::sort(members.begin(), members.end());
    if (members.size() >= static_cast<std::size_t>(n)) {
      out.push_back(members[static_cast<std::size_t>(n - 1)].second);
    }
  }
  return out;
}

std::vector<NodeId> SortByOrder(const QueryContext& ctx,
                                std::vector<NodeId> nodes) {
  // Materialize the sort key once per row (as a DBMS sort would), then
  // decorate-sort-undecorate.
  std::vector<std::pair<std::uint64_t, NodeId>> keyed;
  keyed.reserve(nodes.size());
  for (NodeId node : nodes) {
    keyed.emplace_back(ctx.oracle->OrderOf(node), node);
    ++ctx.stats.order_lookups;
  }
  std::sort(keyed.begin(), keyed.end());
  nodes.clear();
  for (const auto& [order, node] : keyed) {
    if (nodes.empty() || nodes.back() != node) nodes.push_back(node);
  }
  return nodes;
}

}  // namespace primelabel
