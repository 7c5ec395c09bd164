#include "service/query_service.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>

#include "util/status.h"

namespace primelabel {

namespace {

/// Items per batch-verb chunk between deadline checks. Small enough that
/// a chunk completes in well under a millisecond on any corpus label
/// width; large enough that the per-chunk check cost vanishes. Deadlined
/// batches run chunk-by-chunk; unlimited ones take the single-shot path
/// (zero overhead, and per-chunk output is a prefix of the single-shot
/// output, so the two paths agree bit-for-bit).
constexpr std::size_t kDeadlineCheckChunk = 1024;

Status BatchDeadlineExceeded(const char* verb, std::size_t done,
                             std::size_t total) {
  return Status::DeadlineExceeded(std::string(verb) + " cancelled after " +
                                  std::to_string(done) + " of " +
                                  std::to_string(total) + " items");
}

/// The oracle's batch kernels index the view's label columns without a
/// bound, so the batch verbs check every caller id against the view's
/// [0, node_count()) first and name the first id outside it.
Status CheckIds(const Snapshot& snapshot,
                std::initializer_list<std::span<const NodeId>> lists) {
  const std::size_t limit = snapshot.node_count();
  for (std::span<const NodeId> ids : lists) {
    for (NodeId id : ids) {
      if (id < 0 || static_cast<std::size_t>(id) >= limit) {
        return Status::InvalidArgument(
            "node id " + std::to_string(id) +
            " is outside the snapshot's id range [0, " +
            std::to_string(limit) + ")");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

QueryService::QueryService(DurableDocumentStore store, Options options)
    : store_(std::move(store)),
      options_(options),
      cache_(options.view_cache_capacity) {
  store_.set_view_cache(&cache_);
  if (store_.epoch_registry() != nullptr) {
    // One listener sweeps both caches: a checkpoint publish retires the
    // old epoch's views and the results computed against them.
    store_.epoch_registry()->SetRetirementListener(
        [this](std::uint64_t current_epoch) {
          cache_.EvictStale(current_epoch);
          planner_.EvictStale(current_epoch);
        });
  }
}

QueryService::HeapRelease::~HeapRelease() {
#if defined(__GLIBC__)
  // The worker and connection threads allocate from glibc's per-thread
  // arenas, which glibc shrinks only from the top and only past a
  // threshold that rises with the largest mapped block the process has
  // freed. Without the trim, what a stopped service freed stays resident
  // for the life of the process (DESIGN.md §13).
  malloc_trim(0);
#endif
}

QueryService::~QueryService() {
  if (store_.epoch_registry() != nullptr) {
    store_.epoch_registry()->SetRetirementListener(nullptr);
  }
  store_.set_view_cache(nullptr);
}

Result<Session> QueryService::OpenSession() {
  if (options_.max_sessions > 0) {
    // Optimistic admit-then-check: overshoot is corrected before return,
    // so the gauge may transiently exceed the cap but never settles there.
    if (open_sessions_.fetch_add(1, std::memory_order_acq_rel) >=
        options_.max_sessions) {
      open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("session limit reached");
    }
  } else {
    open_sessions_.fetch_add(1, std::memory_order_acq_rel);
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return Session(this, std::make_shared<SessionState>());
}

void QueryService::CloseSession(SessionState* state) {
  (void)state;
  open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
}

QueryService::Counters QueryService::counters() const {
  Counters c;
  c.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  c.sessions_rejected = sessions_rejected_.load(std::memory_order_relaxed);
  c.requests_served = requests_served_.load(std::memory_order_relaxed);
  c.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  c.snapshots_opened = snapshots_opened_.load(std::memory_order_relaxed);
  return c;
}

Status QueryService::Ticket::Admit() {
  const Options& opts = service_->options_;
  // Per-session lifetime quota: charge first so concurrent requests cannot
  // both sneak under the last slot.
  if (opts.session_request_quota > 0) {
    if (session_->admitted.fetch_add(1, std::memory_order_acq_rel) >=
        opts.session_request_quota) {
      session_->admitted.fetch_sub(1, std::memory_order_acq_rel);
      session_->rejected.fetch_add(1, std::memory_order_relaxed);
      service_->requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("session request quota exhausted");
    }
  }
  if (opts.session_max_inflight > 0) {
    if (session_->inflight.fetch_add(1, std::memory_order_acq_rel) >=
        opts.session_max_inflight) {
      session_->inflight.fetch_sub(1, std::memory_order_acq_rel);
      session_->rejected.fetch_add(1, std::memory_order_relaxed);
      service_->requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("session in-flight limit reached");
    }
  } else {
    session_->inflight.fetch_add(1, std::memory_order_acq_rel);
  }
  if (opts.max_inflight_requests > 0) {
    if (service_->inflight_requests_.fetch_add(1, std::memory_order_acq_rel) >=
        opts.max_inflight_requests) {
      service_->inflight_requests_.fetch_sub(1, std::memory_order_acq_rel);
      session_->inflight.fetch_sub(1, std::memory_order_acq_rel);
      session_->rejected.fetch_add(1, std::memory_order_relaxed);
      service_->requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("service in-flight limit reached");
    }
  } else {
    service_->inflight_requests_.fetch_add(1, std::memory_order_acq_rel);
  }
  admitted_ = true;
  return Status::Ok();
}

QueryService::Ticket::~Ticket() {
  if (!admitted_) return;
  service_->inflight_requests_.fetch_sub(1, std::memory_order_acq_rel);
  session_->inflight.fetch_sub(1, std::memory_order_acq_rel);
  session_->served.fetch_add(1, std::memory_order_relaxed);
  service_->requests_served_.fetch_add(1, std::memory_order_relaxed);
}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    Close();
    service_ = other.service_;
    state_ = std::move(other.state_);
    other.service_ = nullptr;
    other.state_.reset();
  }
  return *this;
}

void Session::Close() {
  if (service_ != nullptr) {
    service_->CloseSession(state_.get());
    service_ = nullptr;
    state_.reset();
  }
}

Result<Snapshot> Session::OpenSnapshot(const Deadline& deadline) {
  if (!valid()) return Status::InvalidArgument("session is closed");
  QueryService::Ticket ticket(service_, state_.get());
  Status admitted = ticket.Admit();
  if (!admitted.ok()) return admitted;
  if (deadline.expired()) {
    return Status::DeadlineExceeded("deadline expired before snapshot open");
  }
  Result<Snapshot> snapshot = service_->store_.OpenSnapshot();
  if (snapshot.ok()) {
    service_->snapshots_opened_.fetch_add(1, std::memory_order_relaxed);
  }
  return snapshot;
}

Result<std::vector<NodeId>> Session::Query(const Snapshot& snapshot,
                                           std::string_view xpath,
                                           const Deadline& deadline) {
  if (!valid()) return Status::InvalidArgument("session is closed");
  if (!snapshot.valid()) {
    return Status::InvalidArgument("snapshot is not open");
  }
  QueryService::Ticket ticket(service_, state_.get());
  Status admitted = ticket.Admit();
  if (!admitted.ok()) return admitted;
  if (deadline.expired()) {
    return Status::DeadlineExceeded("deadline expired before query ran");
  }
  const EpochView& view = *snapshot.view();
  Result<QueryPlanner::NodeSet> result = service_->planner_.Query(
      view.label_table(), view.oracle(), snapshot.epoch(),
      snapshot.journal_bytes(), xpath, service_->options_.query_workers);
  if (!result.ok()) return result.status();
  return std::vector<NodeId>(*result.value());
}

Result<std::string> Session::Explain(const Snapshot& snapshot,
                                     std::string_view xpath,
                                     const Deadline& deadline) {
  if (!valid()) return Status::InvalidArgument("session is closed");
  if (!snapshot.valid()) {
    return Status::InvalidArgument("snapshot is not open");
  }
  QueryService::Ticket ticket(service_, state_.get());
  Status admitted = ticket.Admit();
  if (!admitted.ok()) return admitted;
  if (deadline.expired()) {
    return Status::DeadlineExceeded("deadline expired before explain ran");
  }
  const EpochView& view = *snapshot.view();
  return service_->planner_.Explain(view.label_table(), view.oracle(), xpath,
                                    service_->options_.query_workers);
}

Result<std::vector<bool>> Session::IsAncestorBatch(
    const Snapshot& snapshot, const std::vector<NodeId>& ancestors,
    const std::vector<NodeId>& descendants, const Deadline& deadline) {
  if (!valid()) return Status::InvalidArgument("session is closed");
  if (!snapshot.valid()) {
    return Status::InvalidArgument("snapshot is not open");
  }
  if (ancestors.size() != descendants.size()) {
    return Status::InvalidArgument(
        "IsAncestorBatch requires equally sized ancestor/descendant lists");
  }
  Status ids = CheckIds(snapshot, {ancestors, descendants});
  if (!ids.ok()) return ids;
  QueryService::Ticket ticket(service_, state_.get());
  Status admitted = ticket.Admit();
  if (!admitted.ok()) return admitted;
  const std::size_t total = ancestors.size();
  const std::size_t chunk =
      deadline.unlimited() || total == 0 ? total : kDeadlineCheckChunk;
  std::vector<bool> results;
  results.reserve(total);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<std::uint8_t> raw;
  for (std::size_t off = 0; off < total; off += chunk) {
    if (deadline.expired()) {
      return BatchDeadlineExceeded("ISANC", off, total);
    }
    const std::size_t end = std::min(off + chunk, total);
    pairs.clear();
    pairs.reserve(end - off);
    for (std::size_t i = off; i < end; ++i) {
      pairs.emplace_back(ancestors[i], descendants[i]);
    }
    snapshot.oracle().IsAncestorBatch(pairs, &raw);
    for (std::uint8_t bit : raw) results.push_back(bit != 0);
  }
  return results;
}

Result<std::vector<NodeId>> Session::SelectDescendants(
    const Snapshot& snapshot, NodeId anchor,
    const std::vector<NodeId>& candidates, const Deadline& deadline) {
  if (!valid()) return Status::InvalidArgument("session is closed");
  if (!snapshot.valid()) {
    return Status::InvalidArgument("snapshot is not open");
  }
  Status ids = CheckIds(snapshot, {{&anchor, 1}, candidates});
  if (!ids.ok()) return ids;
  QueryService::Ticket ticket(service_, state_.get());
  Status admitted = ticket.Admit();
  if (!admitted.ok()) return admitted;
  // The oracle appends matches in candidate order, so chunked execution
  // concatenates to exactly the single-shot answer.
  const std::span<const NodeId> all(candidates);
  const std::size_t chunk =
      deadline.unlimited() ? all.size() : kDeadlineCheckChunk;
  std::vector<NodeId> out;
  for (std::size_t off = 0; off < all.size(); off += chunk) {
    if (deadline.expired()) {
      return BatchDeadlineExceeded("DESC", off, all.size());
    }
    snapshot.oracle().SelectDescendants(
        anchor, all.subspan(off, std::min(chunk, all.size() - off)), &out);
  }
  return out;
}

Result<std::vector<NodeId>> Session::SelectAncestors(
    const Snapshot& snapshot, NodeId descendant,
    const std::vector<NodeId>& candidates, const Deadline& deadline) {
  if (!valid()) return Status::InvalidArgument("session is closed");
  if (!snapshot.valid()) {
    return Status::InvalidArgument("snapshot is not open");
  }
  Status ids = CheckIds(snapshot, {{&descendant, 1}, candidates});
  if (!ids.ok()) return ids;
  QueryService::Ticket ticket(service_, state_.get());
  Status admitted = ticket.Admit();
  if (!admitted.ok()) return admitted;
  const std::span<const NodeId> all(candidates);
  const std::size_t chunk =
      deadline.unlimited() ? all.size() : kDeadlineCheckChunk;
  std::vector<NodeId> out;
  for (std::size_t off = 0; off < all.size(); off += chunk) {
    if (deadline.expired()) {
      return BatchDeadlineExceeded("ANC", off, all.size());
    }
    snapshot.oracle().SelectAncestors(
        descendant, all.subspan(off, std::min(chunk, all.size() - off)),
        &out);
  }
  return out;
}

std::uint64_t Session::served() const {
  return state_ != nullptr ? state_->served.load(std::memory_order_relaxed)
                           : 0;
}

std::uint64_t Session::rejected() const {
  return state_ != nullptr ? state_->rejected.load(std::memory_order_relaxed)
                           : 0;
}

}  // namespace primelabel
