// wirebench: socket-level benchmark of the primelabel query service.
//
//   wirebench --workload <xpath_cold|oracle_deep|live_write> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//
// One process hosts QueryService + SocketServer (the options
// examples/query_server serves with) over a DurableDocumentStore created
// from the generated XML, and drives it with two closed-loop socket
// clients plus, on live_write, one open-loop writer. The last stdout line
// is the result object; earlier lines carry the workload record, the exact
// counts and (traced runs) the per-layer attribution. See README.md.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bigint/bigint.h"
#include "bigint/reduction.h"
#include "bigint/simd.h"
#include "instrument.h"
#include "planner/compiler.h"
#include "planner/executor.h"
#include "service/query_service.h"
#include "service/socket_server.h"
#include "service/wire.h"
#include "store/catalog.h"
#include "workload.h"
#include "xml/parser.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace wirebench {
namespace {

namespace pl = primelabel;

// --- Fixed design parameters -------------------------------------------------

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 5;
constexpr int kConnections = 2;
/// The options `query_server serve` runs with.
constexpr int kQueryWorkers = 2;
constexpr int kDefaultDeadlineMs = 30000;
constexpr int kIdleTimeoutMs = 120000;
/// Closed-loop requests per connection per second of --seconds. Fixing the
/// count (not the time) is what makes every cache count repeat exactly.
constexpr std::size_t kXpathRequestsPerSecond = 350;
constexpr std::size_t kOracleRequestsPerSecond = 4400;
/// Distinct oracle requests per connection (cycled; no cache sees them).
constexpr std::size_t kOraclePool = 1024;
/// Distinct XPath queries per connection checked against the tree walk.
constexpr std::size_t kXpathChecked = 48;
/// live_write writer: fixed schedule, checkpoint after every 8th op. At 10
/// ops/s a view rebuild follows most commits, yet hits still dominate the
/// read latencies; at 20-40 ops/s the readers chase the writer and the
/// read metrics swing between runs. Its ops come from a fixed seed, like
/// the probe's: the seed varies the readers.
constexpr int kWriterOpsPerSecond = 10;
constexpr int kCheckpointEvery = 8;
constexpr std::uint64_t kWriterSeed = 0x3D17E;
/// live_write set-up: writes pre-applied into the journal so Open replays
/// them and the first SNAP materializes a journaled view.
constexpr int kTailOps = 96;
constexpr std::uint64_t kTailSeed = 0x7A11;
/// Read-only workloads: a write probe, so write_p50_us exists everywhere.
/// Each set-up's store gets one chunk of writes applied back to back — the
/// discarded set-ups right after set-up, the measured one after the read
/// window and the replay passes — which spreads the samples over the run.
/// The probe's ops come from a fixed seed: the same probe on every run.
constexpr int kProbeOpsPerChunk = 40;
constexpr std::uint64_t kProbeSeed = 0x9B0BE;
/// Read latency percentiles are medians over slices of equal count, cut
/// from the reads in completion order, so a transient slowdown of the
/// machine moves few slices.
constexpr int kReadOnlySlices = 5;
constexpr int kLiveWriteSlices = 3;
/// live_write final check: DESC/ANC requests on the final snapshot.
constexpr int kFinalOracleChecks = 32;
/// Share of all CPU time the host may steal during the read window before
/// the run is marked disturbed (in its record and on a `note:` line).
constexpr double kDisturbedStealShare = 0.03;

struct Args {
  std::string workload_name;
  WorkloadKind kind = WorkloadKind::kXpathCold;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/wirebench-runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload_name = value;
      have_workload = ParseWorkload(value, &args->kind);
      if (!have_workload) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds >= 1 && argc % 2 == 1;
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Minimal ordered JSON object writer.
class Json {
 public:
  Json& Add(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  Json& Add(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Add(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  Json& Add(const std::string& key, const char* v) {
    return Add(key, std::string(v));
  }
  Json& Add(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Add(const std::string& key, const Json& v) { return Raw(key, v.str()); }
  Json& Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

pl::DurableDocumentStore::Options StoreOptions(pl::Vfs* vfs) {
  pl::DurableDocumentStore::Options options;  // WalSyncPolicy::kNever
  options.vfs = vfs;
  return options;
}

pl::QueryService::Options ServiceOptions() {
  pl::QueryService::Options options;
  options.query_workers = kQueryWorkers;
  return options;
}

pl::SocketServer::Options ServerOptions() {
  pl::SocketServer::Options options;
  options.default_deadline_ms = kDefaultDeadlineMs;
  options.idle_timeout_ms = kIdleTimeoutMs;
  return options;
}

pl::SocketClient::Options ClientOptions() {
  pl::SocketClient::Options options;
  options.io_timeout_ms = 60000;
  options.max_attempts = 1;  // a transport failure is a failed request
  return options;
}

std::uint64_t SpanId(int conn, std::size_t index) {
  return (static_cast<std::uint64_t>(conn + 1) << 40) | index;
}

// --- Set-up -------------------------------------------------------------------

/// One served store: Create → Open → QueryService → SocketServer → SNAP.
struct Instance {
  std::string dir;
  std::string socket_path;
  std::unique_ptr<CountingVfs> vfs;
  std::unique_ptr<pl::QueryService> service;
  std::unique_ptr<TimingViewCache> timing;
  std::unique_ptr<pl::SocketServer> server;
  /// Traced runs: the same document, unjournaled, for core.insert_us.
  std::unique_ptr<pl::LabeledDocument> shadow;
  std::uint64_t label_bytes = 0;
  std::uint64_t view_nodes = 0;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() { StopServing(); }

  /// Stops the server and releases the service (and with it the store).
  void StopServing() {
    if (server != nullptr) server->Stop();
    server.reset();
    if (service != nullptr && timing != nullptr) {
      service->store().set_view_cache(&service->view_cache());
    }
    service.reset();
    timing.reset();
  }
};

struct SetupSample {
  double setup_s = 0;
  double recovery_ms = 0;
  double parse_ms = 0;
  double label_ms = 0;
};

bool SetUp(const Corpus& corpus, WorkloadKind kind, const std::string& dir,
           const std::string& socket_path, SpanLog* log,
           std::vector<WriteOp>* tail_log, Instance* inst,
           SetupSample* sample, std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const bool traced = log->enabled();
  inst->dir = dir;
  inst->socket_path = socket_path;
  inst->vfs = std::make_unique<CountingVfs>(pl::DefaultVfs(), log);
  const std::uint64_t setup_id = 1;

  const std::int64_t t0 = NowNs();
  {
    pl::Result<pl::DurableDocumentStore> created = [&] {
      CallScope scope(setup_id, "setup.create");
      return pl::DurableDocumentStore::Create(dir, corpus.xml,
                                              StoreOptions(inst->vfs.get()));
    }();
    const std::int64_t t1 = NowNs();
    log->Record(Span{setup_id, "setup.create", "setup", t0, t1});
    if (!created.ok()) {
      *error = "Create: " + created.status().ToString();
      return false;
    }
    sample->setup_s = static_cast<double>(t1 - t0) / 1e9;
    if (kind == WorkloadKind::kLiveWrite) {
      // Untimed: the journal tail Open will replay.
      tail_log->clear();
      WriterPlan plan(kTailSeed, created->document().tree());
      for (int i = 0; i < kTailOps; ++i) {
        WriteOp op = plan.Next(created->document().tree());
        pl::Status applied = ApplyToStore(created.value(), &op);
        if (!applied.ok()) {
          *error = "tail write: " + applied.ToString();
          return false;
        }
        plan.Applied(op);
        tail_log->push_back(op);
      }
      pl::Status flushed = created->Flush();
      if (!flushed.ok()) {
        *error = "tail flush: " + flushed.ToString();
        return false;
      }
    }
  }

  const std::int64_t t2 = NowNs();
  pl::Result<pl::DurableDocumentStore> opened = [&] {
    CallScope scope(setup_id, "setup.open");
    return pl::DurableDocumentStore::Open(dir, StoreOptions(inst->vfs.get()));
  }();
  const std::int64_t t3 = NowNs();
  log->Record(Span{setup_id, "setup.open", "setup", t2, t3});
  if (!opened.ok()) {
    *error = "Open: " + opened.status().ToString();
    return false;
  }
  inst->service = std::make_unique<pl::QueryService>(
      std::move(opened.value()), ServiceOptions());
  if (traced) {
    inst->timing = std::make_unique<TimingViewCache>(
        inst->service->view_cache(), log);
    inst->service->store().set_view_cache(inst->timing.get());
  }
  inst->server =
      std::make_unique<pl::SocketServer>(inst->service.get(), ServerOptions());
  pl::Status started = inst->server->Start(socket_path);
  const std::int64_t t4 = NowNs();
  log->Record(Span{setup_id, "setup.start", "setup", t3, t4});
  if (!started.ok()) {
    *error = "Start: " + started.ToString();
    return false;
  }
  pl::SocketClient client(ClientOptions());
  pl::Status connected = client.Connect(socket_path);
  pl::Result<std::string> snap =
      connected.ok() ? client.Request("SNAP") : pl::Result<std::string>(connected);
  const std::int64_t t5 = NowNs();
  log->Record(Span{setup_id, "setup.snap", "setup", t4, t5});
  if (!snap.ok() || snap->rfind("OK ", 0) != 0) {
    *error = "first SNAP: " +
             (snap.ok() ? snap.value() : snap.status().ToString());
    return false;
  }
  sample->setup_s += static_cast<double>(t5 - t2) / 1e9;
  sample->recovery_ms = Ms(t3 - t2);

  // Untimed: the view's size and label-store residency, over the wire.
  {
    std::istringstream in(snap.value().substr(3));
    std::uint64_t epoch = 0, bytes = 0;
    in >> epoch >> bytes >> inst->view_nodes;
    pl::Result<std::string> stats = client.Request("STATS");
    if (stats.ok()) {
      const std::size_t at = stats->find("LABELBYTES ");
      if (at != std::string::npos) {
        inst->label_bytes = std::strtoull(stats->c_str() + at + 11, nullptr, 10);
      }
    }
  }
  client.Close();

  if (traced) {
    // The two set-up stages Create runs internally, timed as standalone
    // calls on the same input.
    const std::int64_t p0 = NowNs();
    pl::Result<XmlTree> parsed = pl::ParseXml(corpus.xml);
    const std::int64_t p1 = NowNs();
    log->Record(Span{setup_id, "xml.parse", "setup", p0, p1});
    if (!parsed.ok()) {
      *error = "ParseXml: " + parsed.status().ToString();
      return false;
    }
    pl::LabeledDocument doc = pl::LabeledDocument::FromTree(std::move(parsed.value()));
    const std::int64_t p2 = NowNs();
    log->Record(Span{setup_id, "core.label", "setup", p1, p2});
    sample->parse_ms = Ms(p1 - p0);
    sample->label_ms = Ms(p2 - p1);
    for (const WriteOp& op : *tail_log) ApplyToDocument(doc, op);
    inst->shadow = std::make_unique<pl::LabeledDocument>(std::move(doc));
  }
  return true;
}

// --- Label statistics -----------------------------------------------------------

struct LabelStats {
  double limbs_mean = 0;
  std::uint64_t limbs_max = 0;
  double share_ge_redc_min = 0;  ///< labels at least RedcBatchMinLimbs wide
  double open_ms = 0;            ///< median OpenCatalogMapped time
  std::vector<pl::LabelFingerprint> fingerprints;
};

bool ReadLabelStats(const std::string& snapshot_path, bool fingerprints,
                    int opens, LabelStats* out, std::string* error) {
  std::vector<double> open_ms;
  std::optional<pl::LoadedCatalog> catalog;
  for (int i = 0; i < opens; ++i) {
    const std::int64_t t0 = NowNs();
    pl::Result<pl::LoadedCatalog> opened =
        pl::OpenCatalogMapped(pl::DefaultVfs(), snapshot_path);
    open_ms.push_back(Ms(NowNs() - t0));
    if (!opened.ok()) {
      *error = "OpenCatalogMapped: " + opened.status().ToString();
      return false;
    }
    catalog.emplace(std::move(opened.value()));
  }
  out->open_ms = Median(open_ms);
  const std::size_t rows = catalog->row_count();
  const std::size_t redc_min = pl::simd::RedcBatchMinLimbs();
  std::uint64_t total = 0, wide = 0;
  if (fingerprints) out->fingerprints.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const pl::LabelView label = catalog->label_view(static_cast<NodeId>(r));
    total += label.size();
    wide += label.size() >= redc_min ? 1 : 0;
    out->limbs_max = std::max<std::uint64_t>(out->limbs_max, label.size());
    if (fingerprints) {
      out->fingerprints[r] = pl::FingerprintOf(pl::BigInt::FromLimbs(label));
    }
  }
  out->limbs_mean = rows == 0 ? 0 : static_cast<double>(total) / rows;
  out->share_ge_redc_min = rows == 0 ? 0 : static_cast<double>(wide) / rows;
  return true;
}

// --- Request parsing (outside any timed region) ---------------------------------

struct ParsedRequest {
  Verb verb = Verb::kSnap;
  std::string xpath;
  NodeId anchor = 0;
  std::vector<NodeId> first;   ///< ISANC ancestors, or DESC/ANC candidates
  std::vector<NodeId> second;  ///< ISANC descendants
};

ParsedRequest ParseRequest(const Request& request) {
  ParsedRequest parsed;
  parsed.verb = request.verb;
  std::istringstream in(request.line);
  std::string verb;
  in >> verb;
  std::size_t k = 0;
  switch (request.verb) {
    case Verb::kSnap:
      break;
    case Verb::kXpath:
      parsed.xpath = request.line.substr(6);
      break;
    case Verb::kIsAnc:
      in >> k;
      parsed.first.resize(k);
      parsed.second.resize(k);
      for (std::size_t i = 0; i < k; ++i) in >> parsed.first[i] >> parsed.second[i];
      break;
    case Verb::kDesc:
    case Verb::kAnc:
      in >> parsed.anchor >> k;
      parsed.first.resize(k);
      for (std::size_t i = 0; i < k; ++i) in >> parsed.first[i];
      break;
  }
  return parsed;
}

std::vector<NodeId> ParseIdReply(const std::string& reply, bool* ok) {
  std::vector<NodeId> ids;
  std::istringstream in(reply);
  std::string status;
  std::size_t k = 0;
  *ok = static_cast<bool>(in >> status >> k) && status == "OK";
  for (std::size_t i = 0; *ok && i < k; ++i) {
    NodeId id = 0;
    *ok = static_cast<bool>(in >> id);
    ids.push_back(id);
  }
  return ids;
}

// --- Socket readers and the writer ------------------------------------------------

struct ReaderResult {
  std::vector<double> latency_us;
  std::vector<std::int64_t> end_ns;  ///< completion time per request
  std::size_t sent = 0;
  std::uint64_t errors = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::int64_t last_ns = 0;
  std::string first_error;
  std::vector<Span> spans;
};

void RunReader(const std::string& socket_path, const Stream& stream, int conn,
               bool until_stopped, const std::atomic<bool>* stop,
               bool traced, std::latch* ready, std::latch* go,
               ReaderResult* out) {
  pl::SocketClient client(ClientOptions());
  pl::Status connected = client.Connect(socket_path);
  pl::Result<std::string> snap =
      connected.ok() ? client.Request("SNAP") : pl::Result<std::string>(connected);
  if (!snap.ok() || snap->rfind("OK ", 0) != 0) {
    ++out->errors;
    out->first_error = "initial SNAP failed";
  }
  const std::size_t limit = stream.order.size();
  out->latency_us.reserve(until_stopped ? 1 << 16 : limit);
  out->end_ns.reserve(until_stopped ? 1 << 16 : limit);
  if (traced) out->spans.reserve(until_stopped ? 1 << 16 : limit);
  ready->count_down();
  go->wait();
  for (std::size_t i = 0;; ++i) {
    if (until_stopped ? stop->load(std::memory_order_acquire) : i >= limit) {
      break;
    }
    const Request& request = stream.pool[stream.order[i % limit]];
    const std::int64_t t0 = NowNs();
    pl::Result<std::string> reply = client.Request(request.line);
    const std::int64_t t1 = NowNs();
    out->latency_us.push_back(Us(t1 - t0));
    out->end_ns.push_back(t1);
    out->last_ns = t1;
    if (traced) {
      out->spans.push_back(Span{SpanId(conn, i), "client.request", "", t0, t1});
    }
    ++out->sent;
    if (!reply.ok() || reply->rfind("OK ", 0) != 0) {
      if (out->errors++ == 0) {
        out->first_error = request.line.substr(0, 60) + " -> " +
                           (reply.ok() ? reply->substr(0, 120)
                                       : reply.status().ToString());
      }
    } else if (!request.expected.empty()) {
      ++out->checked;
      if (reply.value() != request.expected && out->mismatches++ == 0) {
        out->first_error = "wrong answer to " + request.line.substr(0, 60);
      }
    }
  }
  client.Close();
}

struct WriterResult {
  std::vector<double> write_us;
  std::vector<double> insert_us;   ///< shadow op, traced runs
  std::vector<double> journal_us;  ///< write − shadow, traced runs
  std::vector<double> checkpoint_ms;
  std::vector<double> lateness_us;
  std::vector<WriteOp> log;
  std::uint64_t failures = 0;
  std::uint64_t inserts = 0;
  std::uint64_t sc_records = 0;
  std::uint64_t checkpoints_full = 0;
  std::uint64_t checkpoints_delta = 0;
  std::uint64_t op_bytes = 0;
  std::uint64_t syncs = 0;
  std::int64_t window_ns = 0;
  std::string first_error;
  std::vector<Span> spans;
};

/// Applies `ops` writes of the plan to `store`: on a fixed schedule of
/// `rate` ops/s from `start_ns` (rate > 0), or back to back (rate == 0).
/// Checkpoints after every kCheckpointEvery-th op.
void RunWriter(pl::DurableDocumentStore& store, WriterPlan& plan, int ops,
               int rate, std::int64_t start_ns, const CountingVfs& vfs,
               pl::LabeledDocument* shadow, bool traced, WriterResult* out) {
  const std::int64_t period_ns = rate > 0 ? 1000000000LL / rate : 0;
  const std::uint64_t syncs_before = vfs.syncs();
  const std::int64_t begin = rate > 0 ? start_ns : NowNs();
  for (int i = 0; i < ops; ++i) {
    // Unique across the probe's chunks, which share one WriterResult.
    const std::uint64_t id = (1ull << 50) | (out->log.size() + out->failures);
    if (rate > 0) {
      const std::int64_t due = start_ns + period_ns * i;
      std::int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      out->lateness_us.push_back(Us(now - due));
    }
    WriteOp op = plan.Next(store.document().tree());
    // Traced runs time the same op on the unjournaled shadow, before the
    // store call on even ops and after it on odd ones, so neither call
    // always runs on the cache the other warmed.
    std::int64_t shadow_ns = 0;
    auto run_shadow = [&] {
      if (!traced || shadow == nullptr) return;
      const std::int64_t s0 = NowNs();
      ApplyToDocument(*shadow, op);
      const std::int64_t s1 = NowNs();
      shadow_ns = s1 - s0;
      out->spans.push_back(Span{id, "core.insert", "writer.write", s0, s1});
    };
    if (i % 2 == 0) run_shadow();
    const std::uint64_t bytes_before = vfs.bytes_written();
    const std::int64_t t0 = NowNs();
    pl::Status applied;
    {
      CallScope scope(id, "writer.write");
      applied = ApplyToStore(store, &op);
    }
    const std::int64_t t1 = NowNs();
    if (!applied.ok()) {
      if (out->failures++ == 0) {
        out->first_error = std::string(OpKindName(op.kind)) + ": " +
                           applied.ToString();
      }
      continue;
    }
    out->write_us.push_back(Us(t1 - t0));
    out->op_bytes += vfs.bytes_written() - bytes_before;
    if (op.kind != OpKind::kDelete) {
      ++out->inserts;
      out->sc_records += static_cast<std::uint64_t>(
          store.document().last_sc_stats().records_updated);
    }
    plan.Applied(op);
    out->log.push_back(op);
    if (traced) {
      out->spans.push_back(Span{id, "writer.write", "", t0, t1});
      if (i % 2 == 1) run_shadow();
      if (shadow != nullptr) {
        out->insert_us.push_back(Us(shadow_ns));
        out->journal_us.push_back(Us((t1 - t0) - shadow_ns));
      }
    }
    if (i % kCheckpointEvery == kCheckpointEvery - 1) {
      const std::int64_t c0 = NowNs();
      pl::Status checkpointed;
      {
        CallScope scope(id, "writer.checkpoint");
        checkpointed = store.Checkpoint();
      }
      const std::int64_t c1 = NowNs();
      if (traced) out->spans.push_back(Span{id, "writer.checkpoint", "", c0, c1});
      if (!checkpointed.ok()) {
        if (out->failures++ == 0) {
          out->first_error = "Checkpoint: " + checkpointed.ToString();
        }
        continue;
      }
      out->checkpoint_ms.push_back(Ms(c1 - c0));
      if (store.delta_chain_length() > 0) {
        ++out->checkpoints_delta;
      } else {
        ++out->checkpoints_full;
      }
    }
  }
  out->window_ns += NowNs() - begin;
  out->syncs += vfs.syncs() - syncs_before;
}

// --- live_write final check -------------------------------------------------------

/// Preorder rank of every attached node (−1 for detached/absent slots).
std::vector<std::int64_t> PreorderRanks(const XmlTree& tree,
                                        std::vector<NodeId>* by_rank) {
  std::vector<std::int64_t> rank(tree.arena_size(), -1);
  by_rank->clear();
  tree.Preorder([&](NodeId id, int) {
    rank[static_cast<std::size_t>(id)] =
        static_cast<std::int64_t>(by_rank->size());
    by_rank->push_back(id);
  });
  return rank;
}

struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  void Fail(const std::string& what) {
    if (failed++ == 0) first_error = what;
  }
};

/// Once the writer stops: SNAP over the socket, then check the snapshot's
/// structure and answers against `model` (the reference tree with the
/// writer's ops replayed). Ids differ across checkpoints, so answers are
/// compared as preorder ranks.
CheckResult FinalCheck(Instance& inst, const XmlTree& model,
                       const std::vector<Stream>& streams, std::uint64_t seed) {
  CheckResult result;
  pl::SocketClient client(ClientOptions());
  pl::Status connected = client.Connect(inst.socket_path);
  ++result.attempted;
  pl::Result<std::string> snap =
      connected.ok() ? client.Request("SNAP") : pl::Result<std::string>(connected);
  if (!snap.ok() || snap->rfind("OK ", 0) != 0) {
    result.Fail("final SNAP failed");
    return result;
  }
  std::uint64_t epoch = 0, bytes = 0, nodes = 0;
  std::istringstream(snap->substr(3)) >> epoch >> bytes >> nodes;

  // The same point, in process, to map the reply ids onto the tree.
  pl::Result<pl::Session> session = inst.service->OpenSession();
  if (!session.ok()) {
    result.Fail("OpenSession: " + session.status().ToString());
    return result;
  }
  pl::Result<pl::Snapshot> view = session->OpenSnapshot();
  if (!view.ok() || view->epoch() != epoch || view->journal_bytes() != bytes) {
    result.Fail("final snapshot point differs from the socket's");
    return result;
  }
  const XmlTree& served = view->document().tree();
  std::vector<NodeId> served_by_rank, model_by_rank;
  const std::vector<std::int64_t> served_rank =
      PreorderRanks(served, &served_by_rank);
  const std::vector<std::int64_t> model_rank =
      PreorderRanks(model, &model_by_rank);
  ++result.attempted;
  bool same_shape = served_by_rank.size() == model_by_rank.size() &&
                    nodes == model_by_rank.size();
  for (std::size_t r = 0; same_shape && r < served_by_rank.size(); ++r) {
    const NodeId s = served_by_rank[r];
    const NodeId m = model_by_rank[r];
    const NodeId sp = served.parent(s);
    const NodeId mp = model.parent(m);
    same_shape = served.name(s) == model.name(m) &&
                 (sp == pl::kInvalidNodeId
                      ? mp == pl::kInvalidNodeId
                      : mp != pl::kInvalidNodeId &&
                            served_rank[static_cast<std::size_t>(sp)] ==
                                model_rank[static_cast<std::size_t>(mp)]);
  }
  if (!same_shape) {
    result.Fail("final snapshot structure differs from the model");
    return result;
  }
  auto to_ranks = [](const std::vector<NodeId>& ids,
                     const std::vector<std::int64_t>& rank) {
    std::vector<std::int64_t> out;
    for (NodeId id : ids) {
      out.push_back(id >= 0 && static_cast<std::size_t>(id) < rank.size()
                        ? rank[static_cast<std::size_t>(id)]
                        : -2);
    }
    return out;
  };

  for (const Stream& stream : streams) {
    for (const Request& request : stream.pool) {
      if (request.verb != Verb::kXpath) continue;
      ++result.attempted;
      pl::Result<std::string> reply = client.Request(request.line);
      bool ok = reply.ok();
      const std::vector<NodeId> ids =
          ok ? ParseIdReply(reply.value(), &ok) : std::vector<NodeId>();
      pl::Result<pl::XPathQuery> parsed =
          pl::ParseXPath(request.line.substr(6));
      if (!ok || !parsed.ok() ||
          to_ranks(ids, served_rank) !=
              to_ranks(pl::EvaluateXPathOnTree(model, parsed.value()),
                       model_rank)) {
        result.Fail("final answer differs: " + request.line);
      }
    }
  }

  pl::Rng rng(seed ^ 0xF17A1ull);
  const std::uint64_t n = model_by_rank.size();
  for (int q = 0; q < kFinalOracleChecks; ++q) {
    const bool desc = q % 2 == 0;
    const std::uint64_t anchor_rank = rng.Below(n);
    std::string line = std::string(desc ? "DESC " : "ANC ") +
                       std::to_string(served_by_rank[anchor_rank]) + " 256";
    std::vector<std::int64_t> expected;
    for (int c = 0; c < 256; ++c) {
      const std::uint64_t r = rng.Below(n);
      line += ' ' + std::to_string(served_by_rank[r]);
      const NodeId a = model_by_rank[anchor_rank];
      const NodeId m = model_by_rank[r];
      if (desc ? WalkIsAncestor(model, a, m) : WalkIsAncestor(model, m, a)) {
        expected.push_back(static_cast<std::int64_t>(r));
      }
    }
    ++result.attempted;
    pl::Result<std::string> reply = client.Request(line);
    bool ok = reply.ok();
    const std::vector<NodeId> ids =
        ok ? ParseIdReply(reply.value(), &ok) : std::vector<NodeId>();
    if (!ok || to_ranks(ids, served_rank) != expected) {
      result.Fail(std::string("final ") + (desc ? "DESC" : "ANC") +
                  " answer differs");
    }
  }
  client.Close();
  return result;
}

// --- Replay passes ------------------------------------------------------------------

/// One in-process replay level of the socket run's request streams, one
/// layer lower per level: 1 = ExecuteRequestLine, 2 = the Session verb,
/// 3 = PlanCompiler::Compile + ExecutePlan, or the oracle batch call.
struct PassResult {
  std::vector<std::vector<double>> us;          ///< per conn, per request
  std::vector<std::vector<double>> compile_us;  ///< level 3, per request
  std::vector<std::vector<double>> execute_us;  ///< level 3, per request
  std::vector<double> oracle_ns_per_id;         ///< level 3 oracle verbs
  std::vector<double> oracle_us;
  pl::EvalStats eval;
  std::uint64_t result_ids = 0;
  std::uint64_t errors = 0;
  pl::EpochViewCache::Stats view;
  pl::QueryPlanner::Stats planner;
};

/// Replays every connection's sent requests at `levels` levels. Levels 1
/// and 2 each run on a fresh service of their own (so each sees the cache
/// sequence the socket run saw); level 3 runs on level 2's snapshot view,
/// past every cache. The levels of one request run back to back on the
/// connection's thread, in an order rotated per request, so drift in the
/// machine's speed cancels out of the per-request differences.
bool ReplayPasses(int levels, const std::string& dir,
                  const std::vector<Stream>& streams,
                  const std::vector<std::vector<ParsedRequest>>& parsed,
                  const std::vector<std::size_t>& sent, SpanLog* log,
                  std::vector<PassResult>* out, std::string* error) {
  std::vector<std::unique_ptr<pl::QueryService>> services;
  for (int level = 1; level <= 2; ++level) {
    pl::Result<pl::DurableDocumentStore> opened =
        pl::DurableDocumentStore::Open(dir, StoreOptions(nullptr));
    if (!opened.ok()) {
      *error = "replay Open: " + opened.status().ToString();
      return false;
    }
    services.push_back(std::make_unique<pl::QueryService>(
        std::move(opened.value()), ServiceOptions()));
  }
  const int conns = static_cast<int>(streams.size());
  out->assign(levels, PassResult());
  for (PassResult& pass : *out) {
    pass.us.assign(conns, {});
    pass.compile_us.assign(conns, {});
    pass.execute_us.assign(conns, {});
  }
  struct PerConn {
    std::vector<Span> spans;
    std::vector<double> oracle_ns, oracle_us;
    pl::EvalStats eval;
    std::uint64_t ids = 0;
    std::vector<std::uint64_t> errors = std::vector<std::uint64_t>(3, 0);
  };
  std::vector<PerConn> per(conns);
  const char* names[] = {"", "replay.wire", "replay.session", "replay.plan"};

  auto body = [&](int c) {
    const Stream& stream = streams[c];
    PerConn& mine = per[c];
    pl::Result<pl::Session> wire_session = services[0]->OpenSession();
    pl::Result<pl::Session> session = services[1]->OpenSession();
    if (!wire_session.ok() || !session.ok()) {
      ++mine.errors[0];
      return;
    }
    std::optional<pl::Snapshot> wire_snapshot;
    std::optional<pl::Snapshot> snapshot;
    pl::WireContext context;
    context.default_deadline_ms = kDefaultDeadlineMs;
    bool done = false;
    if (pl::ExecuteRequestLine(*services[0], wire_session.value(),
                               &wire_snapshot, "SNAP", &done, &context)
            .rfind("OK ", 0) != 0) {
      ++mine.errors[0];
    }
    pl::Result<pl::Snapshot> first =
        session->OpenSnapshot(pl::Deadline::AfterMs(kDefaultDeadlineMs));
    if (!first.ok()) {
      ++mine.errors[1];
      return;
    }
    snapshot.emplace(std::move(first.value()));

    auto run = [&](int level, std::size_t i) {
      const std::uint32_t p = stream.order[i % stream.order.size()];
      const Request& request = stream.pool[p];
      const ParsedRequest& args = parsed[c][p];
      PassResult& pass = (*out)[level - 1];
      const std::uint64_t id = SpanId(c, i);
      const std::int64_t t0 = NowNs();
      bool ok = true;
      if (level == 1) {
        ok = pl::ExecuteRequestLine(*services[0], wire_session.value(),
                                    &wire_snapshot, request.line, &done,
                                    &context)
                 .rfind("OK ", 0) == 0;
      } else if (level == 2) {
        const pl::Deadline deadline = pl::Deadline::AfterMs(kDefaultDeadlineMs);
        switch (args.verb) {
          case Verb::kSnap: {
            pl::Result<pl::Snapshot> snap = session->OpenSnapshot(deadline);
            ok = snap.ok();
            if (ok) snapshot.emplace(std::move(snap.value()));
            break;
          }
          case Verb::kXpath:
            ok = session->Query(*snapshot, args.xpath, deadline).ok();
            break;
          case Verb::kIsAnc:
            ok = session->IsAncestorBatch(*snapshot, args.first, args.second,
                                          deadline)
                     .ok();
            break;
          case Verb::kDesc:
            ok = session->SelectDescendants(*snapshot, args.anchor,
                                            args.first, deadline)
                     .ok();
            break;
          case Verb::kAnc:
            ok = session->SelectAncestors(*snapshot, args.anchor, args.first,
                                          deadline)
                     .ok();
            break;
        }
      } else {
        const pl::EpochView& view = *snapshot->view();
        if (args.verb == Verb::kXpath) {
          pl::Result<pl::PhysicalPlan> plan =
              pl::PlanCompiler::Compile(args.xpath);
          const std::int64_t t1 = NowNs();
          ok = plan.ok();
          if (ok) {
            pl::QueryContext ctx;
            ctx.table = &view.label_table();
            ctx.oracle = &view.oracle();
            ctx.num_workers = kQueryWorkers;
            mine.ids += pl::ExecutePlan(plan.value(), ctx).size();
            mine.eval += ctx.stats;
          }
          const std::int64_t t2 = NowNs();
          pass.compile_us[c].push_back(Us(t1 - t0));
          pass.execute_us[c].push_back(Us(t2 - t1));
          if (log->enabled()) {
            mine.spans.push_back(Span{id, "planner.compile", "replay.plan", t0, t1});
            mine.spans.push_back(Span{id, "planner.execute", "replay.plan", t1, t2});
          }
        } else {
          std::vector<std::uint8_t> bits;
          std::vector<NodeId> matches;
          std::vector<std::pair<NodeId, NodeId>> pairs;
          const std::size_t items = args.first.size();
          if (args.verb == Verb::kIsAnc) {
            pairs.reserve(items);
            for (std::size_t k = 0; k < items; ++k) {
              pairs.emplace_back(args.first[k], args.second[k]);
            }
          }
          const std::int64_t o0 = NowNs();
          if (args.verb == Verb::kIsAnc) {
            view.oracle().IsAncestorBatch(pairs, &bits);
          } else if (args.verb == Verb::kDesc) {
            view.oracle().SelectDescendants(args.anchor, args.first, &matches);
          } else {
            view.oracle().SelectAncestors(args.anchor, args.first, &matches);
          }
          const std::int64_t o1 = NowNs();
          mine.oracle_ns.push_back(static_cast<double>(o1 - o0) /
                                   static_cast<double>(items));
          mine.oracle_us.push_back(Us(o1 - o0));
          pass.compile_us[c].push_back(0);
          pass.execute_us[c].push_back(0);
          if (log->enabled()) {
            mine.spans.push_back(Span{id, "core.oracle", "replay.plan", o0, o1});
          }
        }
      }
      const std::int64_t t_end = NowNs();
      pass.us[c].push_back(Us(t_end - t0));
      if (log->enabled()) {
        mine.spans.push_back(Span{id, names[level], "", t0, t_end});
      }
      if (!ok) ++mine.errors[level - 1];
    };

    for (int level = 1; level <= levels; ++level) {
      (*out)[level - 1].us[c].reserve(sent[c]);
    }
    for (std::size_t i = 0; i < sent[c]; ++i) {
      for (int k = 0; k < levels; ++k) {
        run(1 + static_cast<int>((i + k) % levels), i);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < conns; ++c) {
    log->Merge(per[c].spans);
    for (int level = 1; level <= levels; ++level) {
      (*out)[level - 1].errors += per[c].errors[level - 1];
    }
    PassResult& lowest = out->back();
    lowest.oracle_ns_per_id.insert(lowest.oracle_ns_per_id.end(),
                                   per[c].oracle_ns.begin(),
                                   per[c].oracle_ns.end());
    lowest.oracle_us.insert(lowest.oracle_us.end(), per[c].oracle_us.begin(),
                            per[c].oracle_us.end());
    lowest.eval += per[c].eval;
    lowest.result_ids += per[c].ids;
  }
  for (int level = 1; level <= std::min(levels, 2); ++level) {
    (*out)[level - 1].view = services[level - 1]->view_cache().stats();
    (*out)[level - 1].planner = services[level - 1]->planner().stats();
  }
  return true;
}

// --- One measured phase ------------------------------------------------------------

struct Phase {
  std::vector<SetupSample> setups;
  LabelStats labels;
  double read_window_s = 0;
  double steal_share = 0;  ///< CPU time the host stole during the window
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
  int slices = 1;
  std::vector<ReaderResult> readers;
  WriterResult writer;
  CheckResult final_check;
  pl::EpochViewCache::Stats view;
  pl::QueryPlanner::Stats planner;
  pl::QueryService::Counters counters;
  std::vector<std::int64_t> build_ns;
  std::int64_t wait_ns = 0;
  std::uint64_t label_bytes = 0;
  std::uint64_t view_nodes = 0;
  std::uint64_t vfs_bytes = 0;
  std::uint64_t vfs_syncs = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t live_nodes = 0;
  std::uint64_t model_mismatches = 0;
  std::vector<PassResult> passes;  ///< traced: levels 1..3
  bool replay_counts_match = true;
  std::vector<std::string> errors;  ///< fatal problems (no result printed)

  std::vector<double> Setup(double SetupSample::*field) const {
    std::vector<double> v;
    for (const SetupSample& s : setups) v.push_back(s.*field);
    return v;
  }
};

bool IsReadOnly(WorkloadKind kind) { return kind != WorkloadKind::kLiveWrite; }

Phase RunPhase(const Args& args, const Corpus& corpus,
               const std::vector<Stream>& streams, SpanLog* log,
               const std::string& run_dir, const std::string& tag) {
  Phase phase;
  const bool traced = log->enabled();
  const bool live = args.kind == WorkloadKind::kLiveWrite;
  std::vector<WriteOp> tail_log;
  std::unique_ptr<Instance> owned;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    owned.reset();  // the previous set-up stops before this one starts
    owned = std::make_unique<Instance>();
    std::string error;
    SetupSample sample;
    const std::string dir = run_dir + "/store-" + tag;
    const std::string socket = run_dir + "/" + tag + std::to_string(rep) + ".sock";
    if (!SetUp(corpus, args.kind, dir, socket, log, &tail_log, owned.get(),
               &sample, &error)) {
      phase.errors.push_back("set-up: " + error);
      return phase;
    }
    phase.setups.push_back(sample);
    if (!live && rep + 1 < kSetupRepeats) {
      WriterPlan plan(kProbeSeed, owned->service->store().document().tree());
      RunWriter(owned->service->store(), plan, kProbeOpsPerChunk, 0, 0,
                *owned->vfs, owned->shadow.get(), traced, &phase.writer);
    }
  }
  Instance& inst = *owned;
  phase.label_bytes = inst.label_bytes;
  phase.view_nodes = inst.view_nodes;
  {
    std::string error;
    if (!ReadLabelStats(
            pl::DurableDocumentStore::SnapshotPath(inst.dir, 0),
            traced && args.kind == WorkloadKind::kOracleDeep, traced ? 3 : 1,
            &phase.labels, &error)) {
      phase.errors.push_back(error);
      return phase;
    }
  }

  // The measured window.
  const int conns = static_cast<int>(streams.size());
  phase.readers.resize(conns);
  std::latch ready(conns + (live ? 1 : 0));
  std::latch go(1);
  std::atomic<bool> stop{false};
  std::int64_t go_ns = 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back(RunReader, inst.socket_path, std::cref(streams[c]), c,
                         live, &stop, traced, &ready, &go, &phase.readers[c]);
  }
  std::thread writer;
  if (live) {
    writer = std::thread([&] {
      WriterPlan plan(kWriterSeed, inst.service->store().document().tree());
      ready.count_down();
      go.wait();
      // Fold the set-up's journal tail into an epoch first, so the window
      // does not open with rebuilds that replay the whole tail.
      const std::int64_t c0 = NowNs();
      if (inst.service->store().Checkpoint().ok()) {
        phase.writer.checkpoint_ms.push_back(Ms(NowNs() - c0));
        ++(inst.service->store().delta_chain_length() > 0
               ? phase.writer.checkpoints_delta
               : phase.writer.checkpoints_full);
      } else {
        ++phase.writer.failures;
      }
      RunWriter(inst.service->store(), plan,
                kWriterOpsPerSecond * args.seconds, kWriterOpsPerSecond, go_ns,
                *inst.vfs, inst.shadow.get(), traced, &phase.writer);
    });
  }
  ready.wait();
  const CpuTicks ticks_before = ReadCpuTicks();
  go_ns = NowNs();
  go.count_down();
  if (live) {
    writer.join();
    stop.store(true, std::memory_order_release);
  }
  for (std::thread& t : threads) t.join();
  phase.steal_share = StealShare(ticks_before, ReadCpuTicks());
  std::int64_t last_ns = go_ns;
  for (const ReaderResult& r : phase.readers) last_ns = std::max(last_ns, r.last_ns);
  phase.window_start_ns = go_ns;
  phase.window_end_ns = last_ns;
  phase.slices = live ? kLiveWriteSlices : kReadOnlySlices;
  phase.read_window_s = static_cast<double>(last_ns - go_ns) / 1e9;
  for (const ReaderResult& r : phase.readers) log->Merge(r.spans);

  XmlTree model = corpus.reference;
  if (live) {
    for (const WriteOp& op : tail_log) {
      if (!ApplyToModel(model, op)) ++phase.model_mismatches;
    }
    for (const WriteOp& op : phase.writer.log) {
      if (!ApplyToModel(model, op)) ++phase.model_mismatches;
    }
    phase.final_check = FinalCheck(inst, model, streams, args.seed);
  }
  phase.view = inst.service->view_cache().stats();
  phase.planner = inst.service->planner().stats();
  phase.counters = inst.service->counters();
  if (inst.timing != nullptr) {
    phase.build_ns = inst.timing->build_ns();
    phase.wait_ns = inst.timing->wait_ns();
  }
  inst.StopServing();

  std::vector<std::size_t> sent;
  for (const ReaderResult& r : phase.readers) sent.push_back(r.sent);
  if (traced) {
    std::vector<std::vector<ParsedRequest>> parsed(conns);
    for (int c = 0; c < conns; ++c) {
      for (const Request& request : streams[c].pool) {
        parsed[c].push_back(ParseRequest(request));
      }
    }
    const int levels = IsReadOnly(args.kind) ? 3 : 2;
    std::string error;
    if (!ReplayPasses(levels, inst.dir, streams, parsed, sent, log,
                      &phase.passes, &error)) {
      phase.errors.push_back(error);
      return phase;
    }
    if (IsReadOnly(args.kind)) {
      // Same streams, fresh services: the caches must see the sequence the
      // socket run's did.
      for (int level = 0; level < 2; ++level) {
        const PassResult& pass = phase.passes[level];
        phase.replay_counts_match =
            phase.replay_counts_match &&
            pass.view.misses == phase.view.misses &&
            pass.planner.plan.hits == phase.planner.plan.hits &&
            pass.planner.plan.misses == phase.planner.plan.misses &&
            pass.planner.result.hits == phase.planner.result.hits &&
            pass.planner.result.misses == phase.planner.result.misses;
      }
    }
  }

  if (IsReadOnly(args.kind)) {
    pl::Result<pl::DurableDocumentStore> store =
        pl::DurableDocumentStore::Open(inst.dir, StoreOptions(inst.vfs.get()));
    if (!store.ok()) {
      phase.errors.push_back("probe Open: " + store.status().ToString());
      return phase;
    }
    WriterPlan plan(kProbeSeed, store->document().tree());
    const std::size_t first_op = phase.writer.log.size();
    RunWriter(store.value(), plan, kProbeOpsPerChunk, 0, 0, *inst.vfs,
              inst.shadow.get(), traced, &phase.writer);
    for (std::size_t k = first_op; k < phase.writer.log.size(); ++k) {
      if (!ApplyToModel(model, phase.writer.log[k])) ++phase.model_mismatches;
    }
    if (store->document().tree().node_count() != model.node_count()) {
      ++phase.model_mismatches;
    }
  }
  log->Merge(phase.writer.spans);
  phase.vfs_bytes = inst.vfs->bytes_written();
  phase.vfs_syncs = inst.vfs->syncs();
  phase.store_bytes = DirectoryBytes(inst.dir);
  phase.live_nodes = model.node_count();
  std::error_code ec;
  std::filesystem::remove_all(inst.dir, ec);
  return phase;
}

// --- Reporting ------------------------------------------------------------------------

/// Fewest read samples in one slice: its p99 leaves at least 10 beyond.
constexpr std::size_t kMinSliceSamples = 1000;

struct EndToEnd {
  double setup_s = 0, read_qps = 0, read_p50_us = 0, read_p99_us = 0,
         write_p50_us = 0, peak_rss_mb = 0, store_bytes_per_node = 0;
  std::size_t samples = 0;
  std::size_t slices = 0;
  std::size_t min_slice_samples = 0;
  std::vector<double> slice_qps, slice_p50, slice_p99;
};

EndToEnd Summarize(const Phase& phase) {
  EndToEnd e;
  e.setup_s = Median(phase.Setup(&SetupSample::setup_s));
  // All reads in completion order, cut into slices of equal count: as many
  // as phase.slices, fewer if a slice would hold under kMinSliceSamples.
  std::vector<std::pair<std::int64_t, double>> done;
  for (const ReaderResult& r : phase.readers) {
    for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
      done.emplace_back(r.end_ns[i], r.latency_us[i]);
    }
  }
  std::sort(done.begin(), done.end());
  e.samples = done.size();
  e.slices = std::clamp<std::size_t>(e.samples / kMinSliceSamples, 1,
                                     static_cast<std::size_t>(phase.slices));
  e.min_slice_samples = e.samples;
  std::int64_t slice_start = phase.window_start_ns;
  for (std::size_t s = 0; s < e.slices; ++s) {
    const std::size_t lo = e.samples * s / e.slices;
    const std::size_t hi = e.samples * (s + 1) / e.slices;
    std::vector<double> latencies;
    for (std::size_t k = lo; k < hi; ++k) latencies.push_back(done[k].second);
    const std::int64_t slice_end = hi > lo ? done[hi - 1].first : slice_start;
    e.slice_qps.push_back(
        slice_end > slice_start
            ? latencies.size() / (static_cast<double>(slice_end - slice_start) / 1e9)
            : 0);
    slice_start = slice_end;
    e.slice_p50.push_back(Percentile(latencies, 50));
    e.slice_p99.push_back(Percentile(latencies, 99));
    e.min_slice_samples = std::min(e.min_slice_samples, latencies.size());
  }
  // Throughput over the whole window: it averages out the build/wait
  // cycles of live_write's readers, which make single slices swing.
  const std::int64_t span = phase.window_end_ns - phase.window_start_ns;
  e.read_qps = span <= 0 ? 0 : e.samples / (static_cast<double>(span) / 1e9);
  e.read_p50_us = Median(e.slice_p50);
  e.read_p99_us = Median(e.slice_p99);
  e.write_p50_us = Median(phase.writer.write_us);
  e.peak_rss_mb = static_cast<double>(PeakRssKib()) / 1024.0;
  e.store_bytes_per_node =
      phase.live_nodes == 0
          ? 0
          : static_cast<double>(phase.store_bytes) / phase.live_nodes;
  return e;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

Outcome Judge(const Phase& phase) {
  Outcome o;
  for (const ReaderResult& r : phase.readers) {
    o.attempted += r.sent;
    o.failed += r.errors + r.mismatches;
    if (!r.first_error.empty()) o.problems.push_back("read: " + r.first_error);
  }
  o.attempted += phase.writer.log.size() + phase.writer.failures +
                 phase.writer.checkpoint_ms.size();
  o.failed += phase.writer.failures;
  if (!phase.writer.first_error.empty()) {
    o.problems.push_back("write: " + phase.writer.first_error);
  }
  o.attempted += phase.final_check.attempted;
  o.failed += phase.final_check.failed + phase.model_mismatches;
  if (!phase.final_check.first_error.empty()) {
    o.problems.push_back("final check: " + phase.final_check.first_error);
  }
  if (phase.model_mismatches > 0) {
    o.problems.push_back("writer results differ from the model tree");
  }
  for (const PassResult& pass : phase.passes) {
    if (pass.errors > 0) o.problems.push_back("replay pass failed requests");
  }
  if (!phase.replay_counts_match) {
    o.problems.push_back("replay cache counts differ from the socket run");
  }
  return o;
}

/// The counts the design makes deterministic for one seed.
Json ExactCounts(const Args& args, const Phase& phase) {
  Json counts;
  if (IsReadOnly(args.kind)) {
    counts.Add("view_cache.hits", phase.view.hits)
        .Add("view_cache.misses", phase.view.misses)
        .Add("plan_cache.hits", phase.planner.plan.hits)
        .Add("plan_cache.misses", phase.planner.plan.misses)
        .Add("result_cache.hits", phase.planner.result.hits)
        .Add("result_cache.misses", phase.planner.result.misses);
  }
  std::uint64_t reads = 0;
  for (const ReaderResult& r : phase.readers) reads += IsReadOnly(args.kind) ? r.sent : 0;
  counts.Add("reads", reads)
      .Add("writes", static_cast<std::uint64_t>(phase.writer.log.size()))
      .Add("sc_records_rewritten", phase.writer.sc_records)
      .Add("checkpoints.full", phase.writer.checkpoints_full)
      .Add("checkpoints.delta", phase.writer.checkpoints_delta)
      .Add("bytes_written", phase.vfs_bytes)
      .Add("syncs", phase.vfs_syncs)
      .Add("store_bytes", phase.store_bytes)
      .Add("live_nodes", phase.live_nodes);
  return counts;
}

/// Requests sent per shape, with their latency p50/p99 — the measured
/// share a change to one request shape can move.
std::string MixJson(const std::vector<Stream>& streams,
                    const std::vector<ReaderResult>& readers) {
  std::map<std::string, std::vector<double>> by_shape;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const Stream& s = streams[c];
    for (std::size_t i = 0; i < readers[c].sent; ++i) {
      by_shape[s.pool[s.order[i % s.order.size()]].shape].push_back(
          readers[c].latency_us[i]);
    }
  }
  Json json;
  for (const auto& [shape, latencies] : by_shape) {
    json.Add(shape, Json()
                        .Add("n", static_cast<std::uint64_t>(latencies.size()))
                        .Add("p50_us", Percentile(latencies, 50))
                        .Add("p99_us", Percentile(latencies, 99)));
  }
  return json.str();
}

Json WorkloadRecord(const Args& args, const Corpus& corpus,
                    const std::vector<Stream>& streams, const Phase& phase) {
  const XmlTree& tree = corpus.reference;
  int max_depth = 0;
  double depth_sum = 0;
  tree.Preorder([&](NodeId, int depth) {
    max_depth = std::max(max_depth, depth);
    depth_sum += depth;
  });
  std::uint64_t requests = 0, distinct = 0, repeats = 0;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    requests += phase.readers[c].sent;
    // Distinct requests actually sent, and repeats among them.
    std::vector<bool> seen(streams[c].pool.size(), false);
    for (std::size_t i = 0; i < phase.readers[c].sent; ++i) {
      const std::uint32_t p = streams[c].order[i % streams[c].order.size()];
      if (seen[p]) {
        ++repeats;
      } else {
        seen[p] = true;
        ++distinct;
      }
    }
  }
  Json doc;
  doc.Add("generator", corpus.description)
      .Add("nodes", static_cast<std::uint64_t>(tree.node_count()))
      .Add("max_depth", static_cast<std::uint64_t>(max_depth))
      .Add("mean_depth", depth_sum / static_cast<double>(tree.node_count()))
      .Add("label_limbs_mean", phase.labels.limbs_mean)
      .Add("label_limbs_max", phase.labels.limbs_max)
      .Add("redc_batch_min_limbs",
           static_cast<std::uint64_t>(pl::simd::RedcBatchMinLimbs()))
      .Add("share_labels_at_redc_batch_width", phase.labels.share_ge_redc_min);
  Json reads;
  reads.Add("loop", "closed")
      .Add("connections", static_cast<std::uint64_t>(streams.size()))
      .Add("requests", requests)
      .Add("distinct_requests", distinct)
      .Add("repeated_share",
           requests == 0 ? 0.0 : static_cast<double>(repeats) / requests)
      .Add("window_s", phase.read_window_s)
      .Raw("mix", MixJson(streams, phase.readers));
  const std::vector<double>& late = phase.writer.lateness_us;
  Json writer;
  writer.Add("loop", args.kind == WorkloadKind::kLiveWrite ? "open" : "probe")
      .Add("ops", static_cast<std::uint64_t>(phase.writer.log.size()))
      .Add("rate_per_s",
           args.kind == WorkloadKind::kLiveWrite
               ? static_cast<double>(kWriterOpsPerSecond)
               : 0.0)
      .Add("window_s", static_cast<double>(phase.writer.window_ns) / 1e9)
      .Add("lateness_p50_us", Percentile(late, 50))
      .Add("lateness_p99_us", Percentile(late, 99))
      .Add("lateness_max_us", Percentile(late, 100))
      .Add("checkpoint_every", static_cast<std::uint64_t>(kCheckpointEvery));
  std::map<std::string, std::uint64_t> ops;
  for (const WriteOp& op : phase.writer.log) ++ops[OpKindName(op.kind)];
  Json op_mix;
  for (const auto& [kind, n] : ops) op_mix.Add(kind, n);
  writer.Add("mix", op_mix);
  Json caches;
  caches.Add("view_cache_capacity", static_cast<std::uint64_t>(4))
      .Add("views_built", phase.view.misses)
      .Add("plan_cache_capacity", static_cast<std::uint64_t>(64))
      .Add("result_cache_capacity", static_cast<std::uint64_t>(128))
      .Add("distinct_requests", distinct);
  Json host;
  host.Add("steal_share_in_window", phase.steal_share)
      .Add("disturbed", phase.steal_share > kDisturbedStealShare);
  Json store;
  store.Add("wal_sync", "kNever")
      .Add("location", "checkout directory (page cache)")
      .Add("setup_repeats", static_cast<std::uint64_t>(kSetupRepeats));
  Json record;
  record.Add("workload", args.workload_name)
      .Add("seed", args.seed)
      .Add("document", doc)
      .Add("reads", reads)
      .Add("writer", writer)
      .Add("caches", caches)
      .Add("store", store)
      .Add("host", host)
      .Add("answer_checks",
           Json()
               .Add("checked_replies",
                    phase.readers.empty()
                        ? std::uint64_t{0}
                        : phase.readers[0].checked +
                              (phase.readers.size() > 1 ? phase.readers[1].checked
                                                        : 0))
               .Add("final_snapshot_requests", phase.final_check.attempted));
  return record;
}

/// p50 of per-request differences a[i] − b[i] across connections.
double P50Diff(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  std::vector<double> diffs;
  for (std::size_t c = 0; c < a.size() && c < b.size(); ++c) {
    for (std::size_t i = 0; i < a[c].size() && i < b[c].size(); ++i) {
      diffs.push_back(a[c][i] - b[c][i]);
    }
  }
  return Percentile(diffs, 50);
}

std::vector<double> Flatten(const std::vector<std::vector<double>>& v) {
  std::vector<double> out;
  for (const auto& inner : v) out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

double Ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

double Pct(double traced, double untraced) {
  return untraced == 0 ? 0.0 : 100.0 * (traced - untraced) / untraced;
}

/// Pairs the oracle requests sent would test, and how many of them the
/// fingerprint filter cannot reject.
double ExactTestRatio(const std::vector<Stream>& streams,
                      const std::vector<std::size_t>& sent,
                      const std::vector<pl::LabelFingerprint>& fp) {
  std::uint64_t tested = 0, exact = 0;
  auto test = [&](NodeId divisor, NodeId dividend) {
    if (divisor == dividend) return;
    ++tested;
    exact += pl::FingerprintMayProperlyDivide(
                 fp[static_cast<std::size_t>(divisor)],
                 fp[static_cast<std::size_t>(dividend)])
                 ? 1
                 : 0;
  };
  for (std::size_t c = 0; c < streams.size(); ++c) {
    std::vector<std::uint64_t> uses(streams[c].pool.size(), 0);
    for (std::size_t i = 0; i < sent[c]; ++i) {
      ++uses[streams[c].order[i % streams[c].order.size()]];
    }
    for (std::size_t p = 0; p < streams[c].pool.size(); ++p) {
      if (uses[p] == 0 || streams[c].pool[p].verb == Verb::kXpath ||
          streams[c].pool[p].verb == Verb::kSnap) {
        continue;
      }
      const ParsedRequest args = ParseRequest(streams[c].pool[p]);
      for (std::uint64_t u = 0; u < uses[p]; ++u) {
        for (std::size_t k = 0; k < args.first.size(); ++k) {
          if (args.verb == Verb::kIsAnc) {
            test(args.first[k], args.second[k]);
          } else if (args.verb == Verb::kDesc) {
            test(args.anchor, args.first[k]);
          } else {
            test(args.first[k], args.anchor);
          }
        }
      }
    }
  }
  return tested == 0 ? 0.0 : static_cast<double>(exact) / tested;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload <xpath_cold|oracle_deep|"
                 "live_write> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>]\n");
    return 2;
  }
  const std::string run_dir = args.workdir + "/" + args.workload_name + "-" +
                              std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 1;
  }

  // Inputs: generated before anything is timed.
  const Corpus corpus = MakeCorpus(args.kind);
  std::vector<Stream> streams;
  const std::size_t seconds = static_cast<std::size_t>(args.seconds);
  for (int c = 0; c < kConnections; ++c) {
    switch (args.kind) {
      case WorkloadKind::kXpathCold:
        streams.push_back(MakeXpathStream(corpus, c, args.seed,
                                          kXpathRequestsPerSecond * seconds,
                                          kXpathChecked));
        break;
      case WorkloadKind::kOracleDeep:
        streams.push_back(MakeOracleStream(corpus, c, args.seed,
                                           kOracleRequestsPerSecond * seconds,
                                           kOraclePool));
        break;
      case WorkloadKind::kLiveWrite:
        streams.push_back(MakeHotStream(c, args.seed, 40000 * seconds));
        break;
    }
  }

  SpanLog untraced_log;
  Phase base = RunPhase(args, corpus, streams, &untraced_log, run_dir, "a");
  std::optional<Phase> traced;
  SpanLog span_log;
  if (args.trace && base.errors.empty()) {
    span_log.set_enabled(true);
    traced.emplace(RunPhase(args, corpus, streams, &span_log, run_dir, "b"));
  }
  std::vector<std::string> fatal = base.errors;
  if (traced.has_value()) {
    fatal.insert(fatal.end(), traced->errors.begin(), traced->errors.end());
  }
  if (!fatal.empty()) {
    for (const std::string& e : fatal) std::fprintf(stderr, "error: %s\n", e.c_str());
    std::filesystem::remove_all(run_dir, ec);
    return 1;
  }

  const EndToEnd e2e = Summarize(base);
  Outcome outcome = Judge(base);
  if (e2e.min_slice_samples < kMinSliceSamples) {
    outcome.problems.push_back("fewer than " + std::to_string(kMinSliceSamples) +
                               " read samples: p99 leaves fewer than 10 beyond");
  }
  const std::string counts = ExactCounts(args, base).str();
  bool counts_repeat = true;
  if (traced.has_value()) {
    const Outcome t = Judge(*traced);
    outcome.attempted += t.attempted;
    outcome.failed += t.failed;
    outcome.problems.insert(outcome.problems.end(), t.problems.begin(),
                            t.problems.end());
    if (ExactCounts(args, *traced).str() != counts) {
      counts_repeat = false;
      outcome.problems.push_back("exact counts differ between the untraced "
                                 "and traced runs of one seed");
    }
  }
  // Counts of earlier runs of this binary with this seed must match. The
  // key names the executable's digest, so a build of other sources (a
  // change that moves a count on purpose) starts a record of its own.
  const std::string digest = ExecutableDigest();
  if (!digest.empty()) {
    const std::string dir = args.workdir + "/counts";
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + args.workload_name + "-seed" +
                             std::to_string(args.seed) + "-s" +
                             std::to_string(args.seconds) + "-" + digest +
                             ".json";
    std::ifstream in(path);
    std::string previous;
    if (in && std::getline(in, previous)) {
      if (previous != counts) {
        counts_repeat = false;
        outcome.problems.push_back("exact counts differ from an earlier run "
                                   "of this seed: " + previous);
      }
    } else {
      std::ofstream(path) << counts << "\n";
    }
  }

  std::printf("workload %s seed %llu: %s, WalSyncPolicy::kNever, store in "
              "the checkout directory\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed),
              corpus.description.c_str());
  std::printf("record: %s\n", WorkloadRecord(args, corpus, streams, base).str().c_str());
  std::printf("counts: %s\n", counts.c_str());
  std::printf("read latency samples: %zu in %zu equal-count slices, at "
              "least %zu per slice (p99 leaves %zu beyond)\n",
              e2e.samples, e2e.slices, e2e.min_slice_samples,
              e2e.min_slice_samples / 100);
  if (base.steal_share > kDisturbedStealShare) {
    std::printf("note: the host stole %.1f%% of all CPU time during the read "
                "window (above %.0f%%); this run's timings are disturbed\n",
                100 * base.steal_share, 100 * kDisturbedStealShare);
  }
  auto join = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) {
      if (!out.empty()) out += ' ';
      out += Num(x);
    }
    return out;
  };
  std::printf("slices: read_qps [%s] read_p50_us [%s] read_p99_us [%s]\n",
              join(e2e.slice_qps).c_str(), join(e2e.slice_p50).c_str(),
              join(e2e.slice_p99).c_str());
  // Closed-loop throughput and the p99 of sub-millisecond reads follow the
  // host's CPU steal far more than the program on a shared machine, so
  // they are printed here rather than in the result's metrics.
  std::printf("printed only: read_qps %s read_p99_us %s\n",
              Num(e2e.read_qps).c_str(), Num(e2e.read_p99_us).c_str());
  for (const std::string& p : outcome.problems) {
    std::printf("problem: %s\n", p.c_str());
  }

  Json metrics;
  auto metric = [&](const std::string& name, double value, const char* unit) {
    metrics.Raw(name, Json().Add("value", value).Add("unit", unit).str());
  };
  if (!traced.has_value()) {
    metric("setup_s", e2e.setup_s, "s");
    metric("read_p50_us", e2e.read_p50_us, "us");
    metric("write_p50_us", e2e.write_p50_us, "us");
    metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
    metric("store_bytes_per_node", e2e.store_bytes_per_node, "B");
  } else {
    const Phase& t = *traced;
    const EndToEnd te = Summarize(t);
    const bool read_only = IsReadOnly(args.kind);
    std::vector<std::vector<double>> client(t.readers.size());
    for (std::size_t c = 0; c < t.readers.size(); ++c) client[c] = t.readers[c].latency_us;
    const PassResult& p1 = t.passes[0];
    const PassResult& p2 = t.passes[1];
    std::vector<std::vector<double>> below_session(client.size());
    if (read_only) below_session = t.passes[2].us;
    const double socket_us = P50Diff(client, p1.us);
    const double wire_us = P50Diff(p1.us, p2.us);
    const double session_us =
        read_only ? P50Diff(p2.us, below_session) : Percentile(Flatten(p2.us), 50);
    double compile_us = 0, execute_us = 0, oracle_us = 0, oracle_ns = 0,
           residual_mean_us = 0;
    std::vector<std::size_t> sent;
    for (const ReaderResult& r : t.readers) sent.push_back(r.sent);
    if (read_only) {
      const PassResult& p3 = t.passes[2];
      std::vector<double> compiles, executes;
      std::vector<double> residual;
      for (std::size_t c = 0; c < p3.us.size(); ++c) {
        for (std::size_t i = 0; i < p3.us[c].size(); ++i) {
          const Request& r =
              streams[c].pool[streams[c].order[i % streams[c].order.size()]];
          if (r.verb == Verb::kXpath) {
            compiles.push_back(p3.compile_us[c][i]);
            executes.push_back(p3.execute_us[c][i]);
            residual.push_back(p3.us[c][i] - p3.compile_us[c][i] -
                               p3.execute_us[c][i]);
          }
        }
      }
      compile_us = Percentile(compiles, 50);
      execute_us = Percentile(executes, 50);
      oracle_us = Percentile(p3.oracle_us, 50);
      oracle_ns = Percentile(p3.oracle_ns_per_id, 50);
      residual_mean_us = Mean(residual);
    }
    const double layers_p50 =
        socket_us + wire_us + session_us + compile_us + execute_us + oracle_us;
    const double residual_us = te.read_p50_us - layers_p50;
    const std::vector<double> builds = [&] {
      std::vector<double> v;
      for (std::int64_t ns : t.build_ns) v.push_back(Ms(ns));
      return v;
    }();
    const PassResult& p3 = read_only ? t.passes[2] : t.passes[1];
    std::printf(
        "attribution (p50 per request, us): client %s = socket %s + wire %s "
        "+ session %s + compile %s + execute %s + oracle %s + residual %s "
        "(mean in-pass residual %s)\n",
        Num(te.read_p50_us).c_str(), Num(socket_us).c_str(),
        Num(wire_us).c_str(), Num(session_us).c_str(), Num(compile_us).c_str(),
        Num(execute_us).c_str(), Num(oracle_us).c_str(),
        Num(residual_us).c_str(), Num(residual_mean_us).c_str());
    if (!read_only) {
      std::printf("attribution: live_write replays levels 1-2 only, on the "
                  "final quiescent store; session self time includes "
                  "everything below the Session verb\n");
    }
    std::printf(
        "tracing overhead: setup_s %s -> %s, read_qps %s -> %s, read_p50_us "
        "%s -> %s, read_p99_us %s -> %s, write_p50_us %s -> %s; spans %zu\n",
        Num(e2e.setup_s).c_str(), Num(te.setup_s).c_str(),
        Num(e2e.read_qps).c_str(), Num(te.read_qps).c_str(),
        Num(e2e.read_p50_us).c_str(), Num(te.read_p50_us).c_str(),
        Num(e2e.read_p99_us).c_str(), Num(te.read_p99_us).c_str(),
        Num(e2e.write_p50_us).c_str(), Num(te.write_p50_us).c_str(),
        span_log.size());
    // One file per workload: each traced run replaces the last one's.
    const std::string span_path =
        args.workdir + "/" + args.workload_name + ".spans.jsonl";
    if (span_log.WriteJsonLines(span_path)) {
      std::printf("spans written to %s\n", span_path.c_str());
    }

    metric("service.socket_us", socket_us, "us");
    metric("service.wire_us", wire_us, "us");
    metric("service.session_us", session_us, "us");
    metric("service.view_cache.misses", static_cast<double>(t.view.misses), "count");
    metric("service.view_cache.hit_ratio", Ratio(t.view.hits, t.view.misses), "ratio");
    metric("service.view_cache.wait_ms", Ms(t.wait_ns), "ms");
    metric("service.rejected",
           static_cast<double>(t.counters.requests_rejected +
                               t.counters.sessions_rejected),
           "count");
    metric("corpus.materialize_ms", Percentile(builds, 50), "ms");
    metric("corpus.materialize_count", static_cast<double>(builds.size()), "count");
    metric("corpus.checkpoint_ms", Percentile(t.writer.checkpoint_ms, 50), "ms");
    metric("corpus.delta_checkpoint_share",
           Ratio(t.writer.checkpoints_delta, t.writer.checkpoints_full), "ratio");
    metric("planner.compile_us", compile_us, "us");
    metric("planner.execute_us", execute_us, "us");
    metric("planner.plan_cache.hit_ratio",
           Ratio(t.planner.plan.hits, t.planner.plan.misses), "ratio");
    metric("planner.result_cache.hit_ratio",
           Ratio(t.planner.result.hits, t.planner.result.misses), "ratio");
    metric("planner.result_cache.invalidations",
           static_cast<double>(t.planner.result.invalidations), "count");
    metric("store.rows_per_result",
           p3.result_ids == 0 ? 0.0
                              : static_cast<double>(p3.eval.rows_scanned) /
                                    p3.result_ids,
           "ratio");
    metric("store.tests_per_result",
           p3.result_ids == 0 ? 0.0
                              : static_cast<double>(p3.eval.label_tests) /
                                    p3.result_ids,
           "ratio");
    metric("store.catalog_open_ms", t.labels.open_ms, "ms");
    metric("store.label_bytes_per_node",
           t.view_nodes == 0 ? 0.0
                             : static_cast<double>(t.label_bytes) / t.view_nodes,
           "B");
    metric("core.oracle_us", oracle_us, "us");
    metric("core.oracle_ns_per_id", oracle_ns, "ns");
    metric("core.insert_us", Percentile(t.writer.insert_us, 50), "us");
    metric("core.sc_records_per_write",
           t.writer.inserts == 0 ? 0.0
                                 : static_cast<double>(t.writer.sc_records) /
                                       t.writer.inserts,
           "count");
    metric("core.label_ms", Median(t.Setup(&SetupSample::label_ms)), "ms");
    metric("bigint.label_limbs_mean", t.labels.limbs_mean, "limbs");
    metric("bigint.exact_test_ratio",
           args.kind == WorkloadKind::kOracleDeep
               ? ExactTestRatio(streams, sent, t.labels.fingerprints)
               : 0.0,
           "ratio");
    metric("durability.journal_us", Percentile(t.writer.journal_us, 50), "us");
    metric("durability.bytes_per_write",
           t.writer.log.empty() ? 0.0
                                : static_cast<double>(t.writer.op_bytes) /
                                      t.writer.log.size(),
           "B");
    metric("durability.syncs", static_cast<double>(t.writer.syncs), "count");
    metric("durability.recovery_ms", Median(t.Setup(&SetupSample::recovery_ms)), "ms");
    metric("xml.parse_ms", Median(t.Setup(&SetupSample::parse_ms)), "ms");
    metric("trace.residual_us", residual_us, "us");
    metric("trace.setup_s", te.setup_s, "s");
    metric("trace.read_qps", te.read_qps, "1/s");
    metric("trace.read_p50_us", te.read_p50_us, "us");
    metric("trace.read_p99_us", te.read_p99_us, "us");
    metric("trace.write_p50_us", te.write_p50_us, "us");
    // Overheads are slowdowns in percent: positive = tracing costs time.
    metric("trace.overhead.read_qps_pct", -Pct(te.read_qps, e2e.read_qps), "%");
    metric("trace.overhead.read_p50_pct", Pct(te.read_p50_us, e2e.read_p50_us), "%");
    metric("trace.overhead.read_p99_pct", Pct(te.read_p99_us, e2e.read_p99_us), "%");
    metric("trace.overhead.write_p50_pct",
           Pct(te.write_p50_us, e2e.write_p50_us), "%");
  }

  std::filesystem::remove_all(run_dir, ec);
  const bool correct = outcome.failed == 0 && outcome.problems.empty() &&
                       counts_repeat;
  Json result;
  result.Add("correct", correct)
      .Add("attempted", std::max<std::uint64_t>(outcome.attempted, 1))
      .Add("failed", outcome.failed)
      .Add("metrics", metrics);
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) { return wirebench::Main(argc, argv); }
