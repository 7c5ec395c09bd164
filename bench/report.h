#ifndef PRIMELABEL_BENCH_REPORT_H_
#define PRIMELABEL_BENCH_REPORT_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "store/catalog.h"

// Baked in by the root CMakeLists (git rev-parse --short HEAD); builds
// outside a checkout fall back to "unknown".
#ifndef PRIMELABEL_GIT_SHA
#define PRIMELABEL_GIT_SHA "unknown"
#endif

namespace primelabel::bench {

/// The short git SHA this binary was built from.
inline const char* BuildGitSha() { return PRIMELABEL_GIT_SHA; }

/// Peak resident set size of this process in kilobytes (VmHWM from
/// /proc/self/status), or 0 where that file does not exist. Read at
/// JSON-emission time — i.e. after the benchmarks ran — so it is the true
/// high-water mark of the run, which is what makes memory wins (arena
/// views vs per-view BigInt heaps) trackable next to the throughput
/// numbers.
inline long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Run metadata as a JSON object: the thread budget and peak RSS of the
/// run, plus build provenance (git SHA and the catalog format the binary
/// writes). Two BENCH_*.json files are only apples-to-apples when these
/// match, so every emitter embeds them (under the "dispatch" key, the
/// name the committed files and scripts/check_bench_json.py use).
inline std::string RunMetadataJson() {
  std::ostringstream os;
  os << "{\"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"peak_rss_kb\": " << PeakRssKb()
     << ", \"catalog_format_version\": " << kCatalogFormatVersion
     << ", \"git_sha\": \"" << BuildGitSha() << "\"}";
  return os.str();
}

/// Plain-text table printer: every bench binary prints the rows/series of
/// its paper table or figure in this format so EXPERIMENTS.md can quote
/// them directly.
class Report {
 public:
  Report(std::string title, std::vector<std::string> headers)
      : title_(std::move(title)), headers_(std::move(headers)) {}

  template <typename... Cells>
  void AddRow(Cells&&... cells) {
    std::vector<std::string> row;
    (row.push_back(Format(std::forward<Cells>(cells))), ...);
    rows_.push_back(std::move(row));
  }

  void Print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    os << "\n=== " << title_ << " ===\n";
    PrintRow(os, headers_, widths);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      rule += std::string(widths[c] + 2, '-');
      if (c + 1 < widths.size()) rule += "+";
    }
    os << rule << "\n";
    for (const auto& row : rows_) PrintRow(os, row, widths);
    os.flush();
  }

  /// Machine-readable form of the same table: one JSON object with the
  /// title, the headers and the formatted row cells. Cells keep the text
  /// rendering of Print so the two outputs never disagree.
  void WriteJson(std::ostream& os) const {
    os << "{\"title\": " << Quote(title_) << ", \"headers\": [";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) os << ", ";
      os << Quote(headers_[c]);
    }
    os << "], \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r > 0) os << ", ";
      os << "[";
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        if (c > 0) os << ", ";
        os << Quote(rows_[r][c]);
      }
      os << "]";
    }
    os << "]}";
  }

 private:
  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (char ch : text) {
      switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
          } else {
            out += ch;
          }
      }
    }
    out += "\"";
    return out;
  }

  template <typename T>
  static std::string Format(const T& value) {
    if constexpr (std::is_same_v<T, std::string> ||
                  std::is_convertible_v<T, const char*>) {
      return std::string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(2) << value;
      return os.str();
    } else {
      return std::to_string(value);
    }
  }

  static void PrintRow(std::ostream& os, const std::vector<std::string>& row,
                       const std::vector<std::size_t>& widths) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << " " << std::setw(static_cast<int>(widths[c])) << row[c] << " ";
      if (c + 1 < row.size()) os << "|";
    }
    os << "\n";
  }

  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Writes every report of a bench binary to `BENCH_<name>.json` in the
/// working directory as {"benchmark": name, "dispatch": {...}, "reports":
/// [...]}, so runs can be diffed and regression-checked by scripts instead
/// of by eyeballing the plain-text tables. Returns the path written, or ""
/// on failure.
inline std::string WriteBenchJson(const std::string& name,
                                  const std::vector<const Report*>& reports) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << "{\"benchmark\": \"" << name
      << "\", \"dispatch\": " << RunMetadataJson() << ", \"reports\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out << ",\n";
    reports[i]->WriteJson(out);
  }
  out << "\n]}\n";
  return out ? path : "";
}

/// Wall-clock stopwatch for the response-time experiments.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  /// Elapsed milliseconds since construction or the last Reset.
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace primelabel::bench

#endif  // PRIMELABEL_BENCH_REPORT_H_
