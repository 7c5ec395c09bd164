#ifndef WIREBENCH_INSTRUMENT_H_
#define WIREBENCH_INSTRUMENT_H_

// Measurement plumbing for the socket benchmark: a monotonic clock, an
// in-memory span log, and the two decorators the benchmark threads through
// seams the library already accepts — a counting Vfs
// (DurableDocumentStore::Options::vfs) and a timing SnapshotViewCache
// (DurableDocumentStore::set_view_cache). Both forward every virtual, so
// behaviour (including the mmap-backed arena path) is unchanged.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "corpus/durable_document_store.h"
#include "durability/vfs.h"

namespace wirebench {

using primelabel::Result;
using primelabel::Status;

/// Nanoseconds on the steady clock.
std::int64_t NowNs();

/// One timed interval. Spans of one request share `id`; `parent` names the
/// enclosing span of the same id (empty for a root span).
struct Span {
  std::uint64_t id = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory and written out when the run ends. Disabled logs
/// record nothing, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Record(const Span& span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  /// Appends a batch recorded privately by one thread.
  void Merge(const std::vector<Span>& spans);

  std::size_t size() const;
  /// Writes one JSON object per line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Request id and span name of the benchmark call running on this thread,
/// so decorators invoked underneath it can parent their spans. Zero/empty
/// on threads the benchmark does not drive (the server's connections).
struct CallScope {
  CallScope(std::uint64_t id, const char* name);
  ~CallScope();
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

  static std::uint64_t current_id();
  static const char* current_name();

 private:
  std::uint64_t saved_id_;
  const char* saved_name_;
};

/// Vfs decorator counting write traffic: bytes appended and syncs. With a span log attached it also records each sync.
class CountingVfs : public primelabel::Vfs {
 public:
  explicit CountingVfs(primelabel::Vfs& base, SpanLog* log = nullptr)
      : base_(base), log_(log) {}

  std::uint64_t bytes_written() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

  Result<std::unique_ptr<primelabel::WritableFile>> OpenAppend(
      const std::string& path) override;
  Result<std::unique_ptr<primelabel::WritableFile>> OpenTrunc(
      const std::string& path) override;
  Result<std::vector<std::uint8_t>> ReadAll(const std::string& path,
                                            std::uint64_t max_bytes) override {
    return base_.ReadAll(path, max_bytes);
  }
  Result<std::uint64_t> FileSize(const std::string& path) override {
    return base_.FileSize(path);
  }
  Status Truncate(const std::string& path, std::uint64_t length) override {
    return base_.Truncate(path, length);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_.Rename(from, to);
  }
  Status Unlink(const std::string& path) override { return base_.Unlink(path); }
  Result<std::vector<std::string>> List(const std::string& dir) override {
    return base_.List(dir);
  }
  bool Exists(const std::string& path) override { return base_.Exists(path); }
  Status CreateDirs(const std::string& path) override {
    return base_.CreateDirs(path);
  }
  Result<std::unique_ptr<primelabel::MappedRegion>> MapReadOnly(
      const std::string& path) override {
    return base_.MapReadOnly(path);
  }

 private:
  friend class CountingFile;

  primelabel::Vfs& base_;
  SpanLog* log_;
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> syncs_{0};
};

/// SnapshotViewCache decorator around the service's EpochViewCache: times
/// the materializer it is handed (a view build) and the rest of every
/// lookup (a hit's lookup, or waiting on another connection's build).
class TimingViewCache : public primelabel::SnapshotViewCache {
 public:
  TimingViewCache(primelabel::SnapshotViewCache& base, SpanLog* log)
      : base_(base), log_(log) {}

  Result<std::shared_ptr<const primelabel::EpochView>> GetOrMaterialize(
      std::uint64_t epoch, std::uint64_t journal_bytes,
      const Materializer& materialize) override;

  /// Durations of every build this decorator saw, in ns.
  std::vector<std::int64_t> build_ns() const;
  /// Total time lookups spent outside their own build, in ns.
  std::int64_t wait_ns() const { return wait_ns_.load(); }

 private:
  primelabel::SnapshotViewCache& base_;
  SpanLog* log_;
  mutable std::mutex mu_;
  std::vector<std::int64_t> build_ns_;
  std::atomic<std::int64_t> wait_ns_{0};
};

/// Sample summaries. Percentiles use the nearest-rank method on a copy.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// Share of all CPU time since `since` that the hypervisor stole (the
/// "steal" column of /proc/stat): how much a shared host slowed a window.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& since, const CpuTicks& until);

/// Peak resident set (VmHWM) of this process in KiB, 0 when unavailable.
std::uint64_t PeakRssKib();

/// Total bytes of the regular files directly inside `dir`.
std::uint64_t DirectoryBytes(const std::string& dir);

/// FNV-1a digest of this process's executable, as 16 hex digits ("" when
/// unreadable): runs of one build share it, a rebuild from changed sources
/// does not.
std::string ExecutableDigest();

}  // namespace wirebench

#endif  // WIREBENCH_INSTRUMENT_H_
