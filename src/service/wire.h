#ifndef PRIMELABEL_SERVICE_WIRE_H_
#define PRIMELABEL_SERVICE_WIRE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "service/query_service.h"
#include "util/deadline.h"

namespace primelabel {

/// Front-end robustness gauges, owned by the socket server and surfaced
/// through STATS. Atomic because connection threads, the accept thread,
/// and Drain all touch them; wire only reads (and bumps
/// deadline_exceeded when a request returns that status).
struct ServerGauges {
  std::atomic<std::uint64_t> accepted{0};
  /// Connections rejected at accept because the connection cap was hit.
  std::atomic<std::uint64_t> shed{0};
  /// Connections closed because they sat idle past the idle timeout.
  std::atomic<std::uint64_t> idle_reaped{0};
  /// Connections closed for exceeding max_line_bytes.
  std::atomic<std::uint64_t> oversize_rejected{0};
  /// Requests that answered ERR DeadlineExceeded.
  std::atomic<std::uint64_t> deadline_exceeded{0};
  /// Connections force-closed because they outlived the drain window.
  std::atomic<std::uint64_t> forced_closes{0};
  /// True from Drain() onward: no new work is admitted.
  std::atomic<bool> draining{false};
};

/// Per-request execution context the serving layer threads into
/// ExecuteRequestLine. Tests that call the wire core directly pass
/// nothing and get limit-free execution with zeroed gauges.
struct WireContext {
  /// Server-side deadline applied to every request; 0 = none. A client's
  /// `DEADLINE <ms>` prefix can only tighten it, never extend it.
  int default_deadline_ms = 0;
  /// The owning server's gauges; may be null (in-process tests).
  ServerGauges* gauges = nullptr;
};

/// Line-oriented request protocol for the query server. One request per
/// line, one response line back; every connection runs one Session and
/// holds at most one open Snapshot at a time (re-SNAP to advance to the
/// writer's latest committed state).
///
/// Node ids are the preorder ranks of the open snapshot's pinned point:
/// an id is valid only within the SNAP that produced it, and the batch
/// verbs reject any id outside [0, node_count) with ERR InvalidArgument.
/// Ids renumber whenever a SNAP lands on a new point.
///
/// Requests (tokens are space-separated; node ids are decimal):
///   PING                         -> OK PONG
///   SNAP                         -> OK <epoch> <journal_bytes> <node_count>
///   XPATH <query...>             -> OK <k> <id_1> ... <id_k>
///   ISANC <k> <a_1> <d_1> ... <a_k> <d_k>
///                                -> OK <k> <0|1> x k
///   DESC <anchor> <k> <c_1> ... <c_k>
///                                -> OK <m> <matching ids...>
///   ANC <descendant> <k> <c_1> ... <c_k>
///                                -> OK <m> <matching ids...>
///   STATS                        -> OK SERVED <n> REJECTED <n> HITS <n>
///                                   MISSES <n> EVICTIONS <n> ... SHED <n>
///                                   DEADLINEEXCEEDED <n> IDLEREAPED <n>
///                                   DRAINING <0|1> LABELBYTES <n>
///   QUIT                         -> OK BYE (and the connection closes)
///
/// Any request may carry a deadline prefix:
///   DEADLINE <ms> <request...>
/// bounding that one request to `ms` milliseconds (combined with the
/// server default by taking the sooner). A request whose budget runs out
/// answers `ERR DeadlineExceeded ...` — partial work is discarded and the
/// connection and session stay usable.
///
/// Failures answer `ERR <StatusCodeName> <message...>` — notably
/// `ERR ResourceExhausted ...` when admission control rejects the request;
/// the connection and its session stay usable.
///
/// ExecuteRequestLine is the transport-independent core: the socket server
/// feeds it lines (with its WireContext), tests call it directly.
std::string ExecuteRequestLine(QueryService& service, Session& session,
                               std::optional<Snapshot>* snapshot,
                               const std::string& line, bool* done,
                               const WireContext* context = nullptr);

}  // namespace primelabel

#endif  // PRIMELABEL_SERVICE_WIRE_H_
