#include "planner/executor.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "planner/compiler.h"

namespace primelabel {

namespace {

const std::vector<NodeId>& EmptyRows() {
  static const std::vector<NodeId> empty;
  return empty;
}

/// First offset k in [0, limit) at which `holds(k)` is false, given that
/// `holds` is true on a prefix of [0, limit) and false after it; `limit`
/// when it never fails. Doubling steps bracket the boundary and a binary
/// search pins it, so the search makes O(log k) probes.
template <typename Holds>
std::size_t Gallop(std::size_t limit, Holds&& holds) {
  std::size_t lo = 0;      // every offset below lo holds
  std::size_t hi = limit;  // limit, or an offset that fails
  for (std::size_t step = 1; lo + step - 1 < limit; step *= 2) {
    if (!holds(lo + step - 1)) {
      hi = lo + step - 1;
      break;
    }
    lo += step;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (holds(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// One window operator's candidate list. Context and candidates both
/// arrive in document order without duplicates (the compiler's
/// sort-elision invariant), and a node's descendants form one contiguous
/// run of any document-ordered list. So a galloping search on order
/// numbers finds where the run after an anchor starts, and one on the
/// divisibility test finds where it ends: an anchored step reads its
/// anchors' runs, each found in O(log n) probes, instead of the whole
/// tag list.
/// Probes are counted as they happen (OrderOf as an order lookup,
/// IsAncestor / IsParent as a label test); rows_scanned counts only the
/// rows a window reads.
class Window {
 public:
  Window(const QueryContext& ctx, const std::vector<NodeId>& rows)
      : ctx_(ctx), rows_(rows) {}

  std::size_t size() const { return rows_.size(); }

  bool IsAncestor(NodeId x, NodeId y) const {
    ++ctx_.stats.label_tests;
    return ctx_.oracle->IsAncestor(x, y);
  }
  bool IsParent(NodeId x, NodeId y) const {
    ++ctx_.stats.label_tests;
    return ctx_.oracle->IsParent(x, y);
  }

  /// First index in [from, size) whose row comes after `node` in
  /// document order (at or after it, when `inclusive`).
  std::size_t Seek(std::size_t from, NodeId node, bool inclusive) const {
    const std::uint64_t order = OrderOf(node);
    return from + Gallop(rows_.size() - from, [&](std::size_t k) {
      const std::uint64_t row = OrderOf(rows_[from + k]);
      return inclusive ? row < order : row <= order;
    });
  }

  /// First index in [from, size) whose row does not descend from
  /// `anchor`: the end of the anchor's run, for `from` inside it.
  std::size_t RunEnd(std::size_t from, NodeId anchor) const {
    return from + Gallop(rows_.size() - from, [&](std::size_t k) {
      return IsAncestor(anchor, rows_[from + k]);
    });
  }

  /// First index of the stretch before `to` whose rows all descend from
  /// `anchor`: the start of the anchor's run, for `to` inside it.
  std::size_t RunStart(std::size_t to, NodeId anchor) const {
    return to - Gallop(to, [&](std::size_t k) {
      return IsAncestor(anchor, rows_[to - 1 - k]);
    });
  }

  /// Appends rows [begin, end) to `out`.
  void Emit(std::size_t begin, std::size_t end,
            std::vector<NodeId>* out) const {
    ctx_.stats.rows_scanned += end - begin;
    out->insert(out->end(), rows_.begin() + static_cast<std::ptrdiff_t>(begin),
                rows_.begin() + static_cast<std::ptrdiff_t>(end));
  }

  /// Appends to `hits` the indices in [begin, end) whose row passes `keep`.
  template <typename Keep>
  void Filter(std::size_t begin, std::size_t end, Keep&& keep,
              std::vector<std::size_t>* hits) const {
    ctx_.stats.rows_scanned += end - begin;
    for (std::size_t i = begin; i < end; ++i) {
      if (keep(rows_[i])) hits->push_back(i);
    }
  }

  /// The rows at `hits`, in document order. Windows of nested anchors
  /// overlap, so hits gathered anchor by anchor may come out of order.
  std::vector<NodeId> Gather(std::vector<std::size_t> hits) const {
    if (!std::is_sorted(hits.begin(), hits.end())) {
      std::sort(hits.begin(), hits.end());
    }
    std::vector<NodeId> out;
    out.reserve(hits.size());
    for (std::size_t i : hits) out.push_back(rows_[i]);
    return out;
  }

 private:
  std::uint64_t OrderOf(NodeId id) const {
    ++ctx_.stats.order_lookups;
    return ctx_.oracle->OrderOf(id);
  }

  const QueryContext& ctx_;
  const std::vector<NodeId>& rows_;
};

/// Descendants: each anchor's run. An anchor inside the last emitted run
/// is skipped (one label test), its run already emitted; any other anchor
/// comes after that run, so its seek gallops on from the run's end.
std::vector<NodeId> WindowDescendants(const QueryContext& ctx,
                                      const std::vector<NodeId>& context,
                                      const std::vector<NodeId>& candidates) {
  const Window window(ctx, candidates);
  std::vector<NodeId> out;
  std::size_t end = 0;
  NodeId outer = kInvalidNodeId;
  for (NodeId anchor : context) {
    if (end == window.size()) break;
    if (outer != kInvalidNodeId && window.IsAncestor(outer, anchor)) continue;
    const std::size_t seek = window.Seek(end, anchor, /*inclusive=*/false);
    end = window.RunEnd(seek, anchor);
    window.Emit(seek, end, &out);
    outer = anchor;
  }
  return out;
}

/// Children: the rows of each anchor's run that pass IsParent. Nested
/// anchors' runs overlap, so none is skipped, but seeks still only grow.
std::vector<NodeId> WindowChildren(const QueryContext& ctx,
                                   const std::vector<NodeId>& context,
                                   const std::vector<NodeId>& candidates) {
  const Window window(ctx, candidates);
  std::vector<std::size_t> hits;
  std::size_t seek = 0;
  for (NodeId anchor : context) {
    seek = window.Seek(seek, anchor, /*inclusive=*/false);
    window.Filter(
        seek, window.RunEnd(seek, anchor),
        [&](NodeId row) { return window.IsParent(anchor, row); }, &hits);
  }
  return window.Gather(std::move(hits));
}

/// Following: the suffix after an anchor's run; over several anchors, the
/// suffix from the smallest run end. Seeks only grow and a run ends after
/// its seek, so once a seek passes that end no later anchor can lower it.
std::vector<NodeId> WindowFollowing(const QueryContext& ctx,
                                    const std::vector<NodeId>& context,
                                    const std::vector<NodeId>& candidates) {
  const Window window(ctx, candidates);
  std::size_t first = window.size();
  std::size_t seek = 0;
  for (NodeId anchor : context) {
    seek = window.Seek(seek, anchor, /*inclusive=*/false);
    if (seek >= first) break;
    first = std::min(first, window.RunEnd(seek, anchor));
  }
  std::vector<NodeId> out;
  window.Emit(first, window.size(), &out);
  return out;
}

/// Preceding: the prefix before the last anchor, whose preceding set holds
/// every earlier anchor's, minus that anchor's ancestors. The parent
/// column names those (at most depth many); a seek each, root first so the
/// seeks only grow, finds the ones in the list.
std::vector<NodeId> WindowPreceding(const QueryContext& ctx,
                                    const std::vector<NodeId>& context,
                                    const std::vector<NodeId>& candidates) {
  std::vector<NodeId> out;
  if (context.empty()) return out;
  const Window window(ctx, candidates);
  std::vector<NodeId> path = {context.back()};
  for (NodeId up = ctx.table->ParentOf(path[0]); up != kInvalidNodeId;
       up = ctx.table->ParentOf(up)) {
    path.push_back(up);
  }
  std::size_t begin = 0;
  std::size_t at = 0;
  for (std::size_t i = path.size(); i-- > 1;) {
    at = window.Seek(at, path[i], /*inclusive=*/true);
    if (at < candidates.size() && candidates[at] == path[i]) {
      window.Emit(begin, at, &out);
      begin = at + 1;
    }
  }
  window.Emit(begin, window.Seek(at, path[0], /*inclusive=*/true), &out);
  return out;
}

/// Sibling axes: an anchor's siblings lie in its parent's run, after the
/// anchor (following) or before it (preceding), and are the rows whose
/// parent column names that parent. Of the anchors sharing a parent, the
/// first covers every following sibling and the last every preceding one,
/// so only those are kept; seeks then only grow.
std::vector<NodeId> WindowSiblings(const QueryContext& ctx,
                                   const std::vector<NodeId>& context,
                                   const std::vector<NodeId>& candidates,
                                   bool following) {
  std::vector<NodeId> anchors;
  std::unordered_set<NodeId> parents;
  auto keep_first_per_parent = [&](NodeId anchor) {
    const NodeId parent = ctx.table->ParentOf(anchor);
    if (parent != kInvalidNodeId && parents.insert(parent).second) {
      anchors.push_back(anchor);
    }
  };
  if (following) {
    for (NodeId anchor : context) keep_first_per_parent(anchor);
  } else {
    std::for_each(context.rbegin(), context.rend(), keep_first_per_parent);
    std::reverse(anchors.begin(), anchors.end());
  }
  const Window window(ctx, candidates);
  std::vector<std::size_t> hits;
  std::size_t seek = 0;
  for (NodeId anchor : anchors) {
    const NodeId parent = ctx.table->ParentOf(anchor);
    seek = window.Seek(seek, anchor, /*inclusive=*/!following);
    window.Filter(
        following ? seek : window.RunStart(seek, parent),
        following ? window.RunEnd(seek, parent) : seek,
        [&](NodeId row) { return ctx.table->ParentOf(row) == parent; },
        &hits);
  }
  return window.Gather(std::move(hits));
}

/// Marks the tag scan at the bottom of each join's candidate chain
/// (walking down through the predicate filters pushed below scan joins).
/// The join kernels and the window operators count the candidate rows
/// they read as rows_scanned, so the executor charges a scan itself only
/// when no join consumes it — keeping the counter's meaning (rows fetched
/// from the tag index) aligned with the evaluator's accounting.
std::vector<char> ScansChargedByJoins(const PhysicalPlan& plan) {
  std::vector<char> charged(plan.ops.size(), 0);
  for (const PlanOp& op : plan.ops) {
    int c = op.candidates;
    if (c < 0) continue;
    while (plan.ops[static_cast<std::size_t>(c)].kind ==
               PlanOpKind::kAttributeFilter ||
           plan.ops[static_cast<std::size_t>(c)].kind ==
               PlanOpKind::kTextFilter) {
      c = plan.ops[static_cast<std::size_t>(c)].input;
    }
    charged[static_cast<std::size_t>(c)] = 1;
  }
  return charged;
}

}  // namespace

std::vector<NodeId> ExecutePlan(const PhysicalPlan& plan,
                                const QueryContext& ctx,
                                PlanProfile* profile) {
  if (plan.ops.empty()) return {};
  PL_CHECK(ctx.table != nullptr && ctx.oracle != nullptr);
  const std::vector<char> charged = ScansChargedByJoins(plan);
  // Results by op index. Tag scans alias the tag index; everything else
  // materializes into `owned`.
  std::vector<std::vector<NodeId>> owned(plan.ops.size());
  std::vector<const std::vector<NodeId>*> slot(plan.ops.size(), nullptr);
  if (profile != nullptr) {
    profile->ops.assign(plan.ops.size(), OpProfile());
    profile->totals = EvalStats();
  }
  const EvalStats run_start = ctx.stats;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    PL_CHECK(op.input < static_cast<int>(i) &&
             op.candidates < static_cast<int>(i));
    const std::vector<NodeId>& in =
        op.input >= 0 ? *slot[static_cast<std::size_t>(op.input)]
                      : EmptyRows();
    const std::vector<NodeId>& cand =
        op.candidates >= 0 ? *slot[static_cast<std::size_t>(op.candidates)]
                           : EmptyRows();
    const EvalStats before = ctx.stats;
    switch (op.kind) {
      case PlanOpKind::kTagScan:
        slot[i] = op.arg == "*" ? &ctx.table->AllRows()
                                : &ctx.table->Rows(op.arg);
        if (!charged[i]) ctx.stats.rows_scanned += slot[i]->size();
        break;
      case PlanOpKind::kDescendantJoin:
        owned[i] = WindowDescendants(ctx, in, cand);
        break;
      case PlanOpKind::kChildJoin:
        owned[i] = WindowChildren(ctx, in, cand);
        break;
      case PlanOpKind::kAncestorJoin:
        owned[i] = JoinAncestors(ctx, in, cand);
        break;
      case PlanOpKind::kParentJoin:
        owned[i] = JoinParents(ctx, in, cand);
        break;
      case PlanOpKind::kFollowingFilter:
        owned[i] = WindowFollowing(ctx, in, cand);
        break;
      case PlanOpKind::kPrecedingFilter:
        owned[i] = WindowPreceding(ctx, in, cand);
        break;
      case PlanOpKind::kFollowingSiblingFilter:
        owned[i] = WindowSiblings(ctx, in, cand, /*following=*/true);
        break;
      case PlanOpKind::kPrecedingSiblingFilter:
        owned[i] = WindowSiblings(ctx, in, cand, /*following=*/false);
        break;
      case PlanOpKind::kAttributeFilter:
        for (NodeId id : in) {
          const std::string* attribute = ctx.table->AttributeOf(id, op.arg);
          if (attribute != nullptr && *attribute == op.arg2) {
            owned[i].push_back(id);
          }
        }
        break;
      case PlanOpKind::kTextFilter:
        for (NodeId id : in) {
          const std::string* text = ctx.table->TextOf(id);
          if (text != nullptr && *text == op.arg) owned[i].push_back(id);
        }
        break;
      case PlanOpKind::kPositionSelect:
        owned[i] = PositionFilter(ctx, in, op.position);
        break;
      case PlanOpKind::kOrderSort:
        owned[i] = SortByOrder(ctx, in);
        break;
    }
    if (slot[i] == nullptr) slot[i] = &owned[i];
    if (profile != nullptr) {
      OpProfile& p = profile->ops[i];
      if (op.input >= 0) p.rows_in = in.size();
      if (op.candidates >= 0) p.candidates_in = cand.size();
      p.rows_out = slot[i]->size();
      p.label_tests = ctx.stats.label_tests - before.label_tests;
      p.order_lookups = ctx.stats.order_lookups - before.order_lookups;
    }
  }
  if (profile != nullptr) {
    profile->totals.rows_scanned = ctx.stats.rows_scanned - run_start.rows_scanned;
    profile->totals.label_tests = ctx.stats.label_tests - run_start.label_tests;
    profile->totals.order_lookups =
        ctx.stats.order_lookups - run_start.order_lookups;
  }
  return *slot.back();
}

Result<std::vector<NodeId>> ExecuteXPath(const LabelTable& table,
                                         const StructureOracle& oracle,
                                         std::string_view xpath,
                                         int num_workers, EvalStats* stats) {
  Result<PhysicalPlan> plan = PlanCompiler::Compile(xpath);
  if (!plan.ok()) return plan.status();
  QueryContext ctx;
  ctx.table = &table;
  ctx.oracle = &oracle;
  ctx.num_workers = num_workers < 1 ? 1 : num_workers;
  std::vector<NodeId> result = ExecutePlan(plan.value(), ctx);
  if (stats != nullptr) *stats += ctx.stats;
  return result;
}

}  // namespace primelabel
