#ifndef PRIMELABEL_SERVICE_QUERY_SERVICE_H_
#define PRIMELABEL_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "corpus/durable_document_store.h"
#include "planner/query_planner.h"
#include "service/view_cache.h"
#include "util/deadline.h"

namespace primelabel {

class Session;

/// Structural query service over the epoch-snapshot MVCC store.
///
/// Ownership: the service owns the DurableDocumentStore (single writer,
/// reached through store()) and an EpochViewCache of materialized views.
/// Readers never touch the store directly — they open a Session, which
/// hands out Snapshot handles: RAII epoch pin + shared cached view +
/// frozen StructureOracle. Concurrent sessions pinning the same
/// (epoch, journal_bytes) point share one materialization.
///
/// Admission control: OpenSession fails with kResourceExhausted beyond
/// Options::max_sessions; each request admission-checks against the
/// service-wide in-flight ceiling, the per-session in-flight ceiling, and
/// the per-session lifetime quota. A rejected request leaves the session
/// fully usable — rejection is a typed status, not a poisoned state.
class QueryService {
 public:
  struct Options {
    /// Distinct (epoch, journal_bytes) views kept hot. Intra-epoch commits
    /// mint new keys, so a few slots cover writer churn; stale epochs are
    /// evicted by the registry's retirement listener regardless.
    std::size_t view_cache_capacity = 4;
    /// Concurrently open sessions; 0 = unlimited.
    std::size_t max_sessions = 64;
    /// Service-wide concurrently executing requests; 0 = unlimited.
    std::size_t max_inflight_requests = 256;
    /// Per-session concurrently executing requests; 0 = unlimited.
    std::size_t session_max_inflight = 8;
    /// Per-session lifetime request quota; 0 = unlimited.
    std::uint64_t session_request_quota = 0;
    /// Worker fan-out for batched joins inside each query.
    int query_workers = 1;
  };

  struct Counters {
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_rejected = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t requests_rejected = 0;
    std::uint64_t snapshots_opened = 0;
  };

  /// Takes ownership of an already-Open()ed store.
  QueryService(DurableDocumentStore store, Options options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits a new reader session or fails with kResourceExhausted.
  Result<Session> OpenSession();

  /// The single writer's store. Mutations and checkpoints go through
  /// here; sessions observe them on their next OpenSnapshot.
  DurableDocumentStore& store() { return store_; }
  const DurableDocumentStore& store() const { return store_; }

  EpochViewCache& view_cache() { return cache_; }
  QueryPlanner& planner() { return planner_; }
  const Options& options() const { return options_; }
  Counters counters() const;

 private:
  friend class Session;

  struct SessionState {
    std::atomic<std::uint64_t> inflight{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> rejected{0};
    /// Lifetime admissions, charged against session_request_quota.
    std::atomic<std::uint64_t> admitted{0};
  };

  /// RAII admission ticket: Admit() increments the in-flight gauges only
  /// on success; the destructor releases them.
  class Ticket {
   public:
    Ticket(QueryService* service, SessionState* session)
        : service_(service), session_(session) {}
    ~Ticket();
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    Status Admit();

   private:
    QueryService* service_;
    SessionState* session_;
    bool admitted_ = false;
  };

  void CloseSession(SessionState* state);

  /// Declared first, so destroyed last: once the store, its views and the
  /// caches below are freed, gives the heap they held back to the OS.
  struct HeapRelease {
    ~HeapRelease();
  };

  HeapRelease heap_release_;
  DurableDocumentStore store_;
  const Options options_;
  EpochViewCache cache_;
  QueryPlanner planner_;
  std::atomic<std::uint64_t> open_sessions_{0};
  std::atomic<std::uint64_t> inflight_requests_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_rejected_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> snapshots_opened_{0};
};

/// A reader's handle onto the service: opens pinned snapshots and runs
/// structural requests through them under admission control. Move-only;
/// closing (destruction) releases the session slot. All methods are safe
/// to call concurrently from multiple threads of the same client.
///
/// Every request-shaped method takes an optional Deadline (default:
/// unlimited). The batch verbs execute in chunks and check the deadline
/// between chunks, so an oversized batch under a tight budget returns
/// kDeadlineExceeded in bounded time instead of running to completion —
/// partial results are discarded, and the session stays usable. The batch
/// verbs answer kInvalidArgument, before any oracle call, for an id
/// outside the snapshot's range [0, Snapshot::node_count()).
class Session {
 public:
  Session() = default;
  Session(Session&& other) noexcept { *this = std::move(other); }
  Session& operator=(Session&& other) noexcept;
  ~Session() { Close(); }

  bool valid() const { return service_ != nullptr; }

  /// Pins the current epoch and resolves the (shared) materialized view.
  /// Counts as one request for admission purposes.
  Result<Snapshot> OpenSnapshot(const Deadline& deadline = {});

  /// Evaluates an XPath query against an open snapshot through the
  /// compiled-plan path (shared plan cache + per-snapshot-point result
  /// cache). The deadline is checked before planning and before execution
  /// (plan execution itself is not chunked).
  Result<std::vector<NodeId>> Query(const Snapshot& snapshot,
                                    std::string_view xpath,
                                    const Deadline& deadline = {});

  /// Compiles and executes `xpath` against the snapshot, returning the
  /// one-line operator tree with per-operator cardinalities (the EXPLAIN
  /// wire verb). Counts as one request; bypasses the result cache.
  Result<std::string> Explain(const Snapshot& snapshot,
                              std::string_view xpath,
                              const Deadline& deadline = {});

  /// Batched ancestry test over the snapshot's frozen oracle.
  Result<std::vector<bool>> IsAncestorBatch(const Snapshot& snapshot,
                                            const std::vector<NodeId>& ancestors,
                                            const std::vector<NodeId>& descendants,
                                            const Deadline& deadline = {});

  /// All ids in `candidates` that are descendants of `anchor`.
  Result<std::vector<NodeId>> SelectDescendants(
      const Snapshot& snapshot, NodeId anchor,
      const std::vector<NodeId>& candidates, const Deadline& deadline = {});

  /// All ids in `candidates` that are ancestors of `descendant`.
  Result<std::vector<NodeId>> SelectAncestors(
      const Snapshot& snapshot, NodeId descendant,
      const std::vector<NodeId>& candidates, const Deadline& deadline = {});

  /// Lifetime requests served / rejected on this session.
  std::uint64_t served() const;
  std::uint64_t rejected() const;

  void Close();

 private:
  friend class QueryService;
  Session(QueryService* service,
          std::shared_ptr<QueryService::SessionState> state)
      : service_(service), state_(std::move(state)) {}

  QueryService* service_ = nullptr;
  std::shared_ptr<QueryService::SessionState> state_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_SERVICE_QUERY_SERVICE_H_
