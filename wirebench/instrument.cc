#include "instrument.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <span>

namespace wirebench {

namespace {

thread_local std::uint64_t t_call_id = 0;
thread_local const char* t_call_name = "";

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Merge(const std::vector<Span>& spans) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"name\":\"" << s.name << "\",\"parent\":\""
        << s.parent << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

CallScope::CallScope(std::uint64_t id, const char* name)
    : saved_id_(t_call_id), saved_name_(t_call_name) {
  t_call_id = id;
  t_call_name = name;
}

CallScope::~CallScope() {
  t_call_id = saved_id_;
  t_call_name = saved_name_;
}

std::uint64_t CallScope::current_id() { return t_call_id; }
const char* CallScope::current_name() { return t_call_name; }

/// WritableFile decorator feeding CountingVfs's counters.
class CountingFile : public primelabel::WritableFile {
 public:
  CountingFile(std::unique_ptr<primelabel::WritableFile> base,
               CountingVfs* owner)
      : base_(std::move(base)), owner_(owner) {}

  Status Append(std::span<const std::uint8_t> data) override {
    Status s = base_->Append(data);
    if (s.ok()) {
      owner_->bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return s;
  }
  Status Sync() override {
    owner_->syncs_.fetch_add(1, std::memory_order_relaxed);
    if (owner_->log_ == nullptr || !owner_->log_->enabled()) {
      return base_->Sync();
    }
    const std::int64_t start = NowNs();
    Status s = base_->Sync();
    owner_->log_->Record(Span{CallScope::current_id(), "durability.sync",
                              CallScope::current_name(), start, NowNs()});
    return s;
  }
  std::uint64_t size() const override { return base_->size(); }

 private:
  std::unique_ptr<primelabel::WritableFile> base_;
  CountingVfs* owner_;
};

Result<std::unique_ptr<primelabel::WritableFile>> CountingVfs::OpenAppend(
    const std::string& path) {
  Result<std::unique_ptr<primelabel::WritableFile>> file =
      base_.OpenAppend(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<primelabel::WritableFile>(
      std::make_unique<CountingFile>(std::move(file.value()), this));
}

Result<std::unique_ptr<primelabel::WritableFile>> CountingVfs::OpenTrunc(
    const std::string& path) {
  Result<std::unique_ptr<primelabel::WritableFile>> file =
      base_.OpenTrunc(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<primelabel::WritableFile>(
      std::make_unique<CountingFile>(std::move(file.value()), this));
}

Result<std::shared_ptr<const primelabel::EpochView>>
TimingViewCache::GetOrMaterialize(std::uint64_t epoch,
                                  std::uint64_t journal_bytes,
                                  const Materializer& materialize) {
  std::int64_t own_build = 0;
  const std::int64_t start = NowNs();
  Result<std::shared_ptr<const primelabel::EpochView>> view =
      base_.GetOrMaterialize(epoch, journal_bytes, [&]() {
        const std::int64_t build_start = NowNs();
        Result<std::shared_ptr<const primelabel::EpochView>> built =
            materialize();
        const std::int64_t build_end = NowNs();
        own_build = build_end - build_start;
        if (log_ != nullptr) {
          log_->Record(Span{CallScope::current_id(), "corpus.materialize",
                            "service.view_cache", build_start, build_end});
        }
        return built;
      });
  const std::int64_t end = NowNs();
  if (own_build > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    build_ns_.push_back(own_build);
  }
  wait_ns_.fetch_add(end - start - own_build);
  if (log_ != nullptr) {
    log_->Record(Span{CallScope::current_id(), "service.view_cache",
                      CallScope::current_name(), start, end});
  }
  return view;
}

std::vector<std::int64_t> TimingViewCache::build_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return build_ns_;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return ticks;
  unsigned long long f[8] = {};
  if (std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &f[0],
                  &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]) == 8) {
    ticks.steal = f[7];
    for (unsigned long long v : f) ticks.total += v;
  }
  std::fclose(stat);
  return ticks;
}

double StealShare(const CpuTicks& since, const CpuTicks& until) {
  const std::uint64_t total = until.total - since.total;
  return total == 0 ? 0.0
                    : static_cast<double>(until.steal - since.steal) /
                          static_cast<double>(total);
}

std::uint64_t PeakRssKib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &value) == 1) {
      kib = value;
      break;
    }
  }
  std::fclose(status);
  return kib;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string ExecutableDigest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  if (!in) return "";
  std::uint64_t hash = 0xcbf29ce484222325ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      hash = (hash ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

}  // namespace wirebench
