#include "service/wire.h"

#include <cstdint>
#include <sstream>
#include <vector>

namespace primelabel {
namespace {

std::string ErrorReply(const Status& status, const WireContext* context) {
  if (status.code() == StatusCode::kDeadlineExceeded && context != nullptr &&
      context->gauges != nullptr) {
    context->gauges->deadline_exceeded.fetch_add(1,
                                                 std::memory_order_relaxed);
  }
  std::string reply = "ERR ";
  reply += StatusCodeName(status.code());
  if (!status.message().empty()) {
    reply += ' ';
    // Keep the protocol line-oriented even if a message embeds newlines.
    for (char c : status.message()) reply += c == '\n' ? ' ' : c;
  }
  return reply;
}

std::string IdListReply(const std::vector<NodeId>& ids) {
  std::ostringstream out;
  out << "OK " << ids.size();
  for (NodeId id : ids) out << ' ' << id;
  return out.str();
}

/// Parses `k` then exactly `k * per_item` node ids from `in`. A count
/// the rest of the line cannot hold is rejected before anything is
/// reserved: each id takes at least 2 bytes (a separator and a digit).
bool ParseIdBlock(std::istringstream& in, std::size_t per_item,
                  std::vector<NodeId>* out) {
  std::size_t k = 0;
  if (!(in >> k)) return false;
  const std::streamsize left = in.rdbuf()->in_avail();
  const std::size_t remaining = left > 0 ? static_cast<std::size_t>(left) : 0;
  if (k > remaining / (2 * per_item)) return false;
  out->clear();
  out->reserve(k * per_item);
  for (std::size_t i = 0; i < k * per_item; ++i) {
    NodeId id;
    if (!(in >> id)) return false;
    out->push_back(id);
  }
  return true;
}

}  // namespace

std::string ExecuteRequestLine(QueryService& service, Session& session,
                               std::optional<Snapshot>* snapshot,
                               const std::string& line, bool* done,
                               const WireContext* context) {
  *done = false;
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb)) return "ERR InvalidArgument empty request";

  // Per-request time budget: the server default, tightened (never
  // loosened) by an optional DEADLINE prefix.
  Deadline deadline =
      context != nullptr && context->default_deadline_ms > 0
          ? Deadline::AfterMs(context->default_deadline_ms)
          : Deadline::None();
  if (verb == "DEADLINE") {
    std::int64_t ms = -1;
    if (!(in >> ms) || ms < 0) {
      return "ERR InvalidArgument DEADLINE needs a non-negative "
             "millisecond budget";
    }
    deadline = Deadline::Sooner(deadline, Deadline::AfterMs(ms));
    if (!(in >> verb)) {
      return "ERR InvalidArgument DEADLINE needs a request to bound";
    }
  }

  if (verb == "QUIT") {
    *done = true;
    return "OK BYE";
  }

  // Everything else honors the budget — a request that arrives already
  // expired (e.g. DEADLINE 0) is the cheapest possible cancellation.
  if (deadline.expired()) {
    return ErrorReply(
        Status::DeadlineExceeded("deadline expired before " + verb + " ran"),
        context);
  }

  if (verb == "PING") return "OK PONG";

  if (verb == "SNAP") {
    Result<Snapshot> snap = session.OpenSnapshot(deadline);
    if (!snap.ok()) return ErrorReply(snap.status(), context);
    *snapshot = std::move(snap.value());
    std::ostringstream out;
    out << "OK " << (*snapshot)->epoch() << ' ' << (*snapshot)->journal_bytes()
        << ' ' << (*snapshot)->node_count();
    return out.str();
  }

  if (verb == "STATS") {
    const EpochViewCache::Stats cache = service.view_cache().stats();
    const QueryPlanner::Stats planner = service.planner().stats();
    std::ostringstream out;
    out << "OK SERVED " << session.served() << " REJECTED "
        << session.rejected() << " HITS " << cache.hits << " MISSES "
        << cache.misses << " EVICTIONS " << cache.evictions << " PLANHITS "
        << planner.plan.hits << " PLANMISSES " << planner.plan.misses
        << " RESHITS " << planner.result.hits << " RESMISSES "
        << planner.result.misses << " RESINVALIDATIONS "
        << planner.result.invalidations;
    // Front-end robustness gauges (zero outside a socket server): load
    // shed at accept, requests out of time, idle connections reaped, and
    // whether the server is draining.
    const ServerGauges* gauges =
        context != nullptr ? context->gauges : nullptr;
    out << " SHED "
        << (gauges != nullptr
                ? gauges->shed.load(std::memory_order_relaxed)
                : 0)
        << " DEADLINEEXCEEDED "
        << (gauges != nullptr
                ? gauges->deadline_exceeded.load(std::memory_order_relaxed)
                : 0)
        << " IDLEREAPED "
        << (gauges != nullptr
                ? gauges->idle_reaped.load(std::memory_order_relaxed)
                : 0)
        << " DRAINING "
        << (gauges != nullptr &&
                    gauges->draining.load(std::memory_order_relaxed)
                ? 1
                : 0);
    // Label-store residency of this session's open view: the bytes of
    // its image's label columns and order column (0 before SNAP).
    out << " LABELBYTES "
        << (snapshot->has_value() ? (*snapshot)->label_store_bytes() : 0);
    return out.str();
  }

  // Everything below needs an open snapshot.
  if (!snapshot->has_value()) {
    return "ERR InvalidArgument no snapshot open (send SNAP first)";
  }

  if (verb == "XPATH" || verb == "EXPLAIN") {
    std::string query;
    std::getline(in, query);
    const std::size_t start = query.find_first_not_of(' ');
    if (start == std::string::npos) {
      return "ERR InvalidArgument " + verb + " needs a query";
    }
    query = query.substr(start);
    if (verb == "EXPLAIN") {
      Result<std::string> explained =
          session.Explain(**snapshot, query, deadline);
      if (!explained.ok()) return ErrorReply(explained.status(), context);
      return "OK " + explained.value();
    }
    Result<std::vector<NodeId>> ids =
        session.Query(**snapshot, query, deadline);
    if (!ids.ok()) return ErrorReply(ids.status(), context);
    return IdListReply(ids.value());
  }

  if (verb == "ISANC") {
    std::vector<NodeId> flat;
    if (!ParseIdBlock(in, 2, &flat)) {
      return "ERR InvalidArgument ISANC needs <k> then k id pairs";
    }
    std::vector<NodeId> ancestors, descendants;
    for (std::size_t i = 0; i < flat.size(); i += 2) {
      ancestors.push_back(flat[i]);
      descendants.push_back(flat[i + 1]);
    }
    Result<std::vector<bool>> bits =
        session.IsAncestorBatch(**snapshot, ancestors, descendants, deadline);
    if (!bits.ok()) return ErrorReply(bits.status(), context);
    std::ostringstream out;
    out << "OK " << bits.value().size();
    for (bool b : bits.value()) out << ' ' << (b ? 1 : 0);
    return out.str();
  }

  if (verb == "DESC" || verb == "ANC") {
    NodeId anchor;
    if (!(in >> anchor)) {
      return "ERR InvalidArgument " + verb + " needs an anchor id";
    }
    std::vector<NodeId> candidates;
    if (!ParseIdBlock(in, 1, &candidates)) {
      return "ERR InvalidArgument " + verb + " needs <k> then k ids";
    }
    Result<std::vector<NodeId>> ids =
        verb == "DESC"
            ? session.SelectDescendants(**snapshot, anchor, candidates,
                                        deadline)
            : session.SelectAncestors(**snapshot, anchor, candidates,
                                      deadline);
    if (!ids.ok()) return ErrorReply(ids.status(), context);
    return IdListReply(ids.value());
  }

  return "ERR InvalidArgument unknown verb " + verb;
}

}  // namespace primelabel
