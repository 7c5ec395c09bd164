#ifndef PRIMELABEL_PLANNER_QUERY_PLANNER_H_
#define PRIMELABEL_PLANNER_QUERY_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "planner/compiler.h"
#include "planner/executor.h"
#include "planner/plan_cache.h"
#include "util/status.h"

namespace primelabel {

/// The query service's XPATH path: parse → plan cache → batched execution
/// → result cache. (Callers outside the service run the same plans
/// uncached, through ExecuteXPath.) One QueryPlanner serves every session
/// and view: plans are view-independent, results are keyed by the
/// snapshot point (epoch, journal bytes), and both caches are internally
/// locked — execution itself runs outside any cache lock.
class QueryPlanner {
 public:
  /// Compiled plans kept hot. Plans are view-independent, so entries
  /// survive epoch swings.
  static constexpr std::size_t kPlanCacheCapacity = 64;
  /// Cached query results; swept by the same retirement listener as the
  /// service's view cache.
  static constexpr std::size_t kResultCacheCapacity = 128;

  struct Stats {
    PlanCache::Stats plan;
    ResultCache::Stats result;
  };

  using NodeSet = std::shared_ptr<const std::vector<NodeId>>;

  QueryPlanner()
      : plans_(kPlanCacheCapacity), results_(kResultCacheCapacity) {}

  /// Answers `xpath` against the snapshot identified by
  /// (epoch, journal_bytes), whose data is (table, oracle). On a result
  /// hit nothing executes (and ctx stats don't move); `result_cache_hit`
  /// (optional) reports which happened. `stats` (optional) accumulates
  /// execution counters.
  Result<NodeSet> Query(const LabelTable& table, const StructureOracle& oracle,
                        std::uint64_t epoch, std::uint64_t journal_bytes,
                        std::string_view xpath, int num_workers,
                        EvalStats* stats = nullptr,
                        bool* result_cache_hit = nullptr);

  /// Compiles (through the plan cache) and executes `xpath`, returning
  /// the EXPLAIN line — operator tree plus per-operator cardinalities.
  /// Bypasses the result cache: cardinalities only exist by executing.
  Result<std::string> Explain(const LabelTable& table,
                              const StructureOracle& oracle,
                              std::string_view xpath, int num_workers,
                              EvalStats* stats = nullptr);

  /// Forwarded from the epoch registry's retirement listener: drops
  /// cached results for superseded epochs. Plans are epoch-independent
  /// and stay.
  void EvictStale(std::uint64_t current_epoch) {
    results_.EraseIf([current_epoch](const ResultKey& key) {
      return key.epoch != current_epoch;
    });
  }

  void Clear() {
    plans_.Clear();
    results_.Clear();
  }

  Stats stats() const { return Stats{plans_.stats(), results_.stats()}; }

 private:
  /// Parse + plan-cache lookup/fill; kParseError passes through.
  Result<std::shared_ptr<const PhysicalPlan>> PlanFor(std::string_view xpath);

  PlanCache plans_;
  ResultCache results_;
};

}  // namespace primelabel

#endif  // PRIMELABEL_PLANNER_QUERY_PLANNER_H_
