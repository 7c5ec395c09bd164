#ifndef PRIMELABEL_PLANNER_PLAN_CACHE_H_
#define PRIMELABEL_PLANNER_PLAN_CACHE_H_

#include <compare>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "planner/physical_plan.h"
#include "xml/tree.h"

namespace primelabel {

/// A bounded, internally locked LRU map — the one structure under both of
/// the planner's caches. Values are shared immutable pointers: a hit costs
/// one pointer copy, and a miss returns a null Value.
///
/// There is no in-flight protocol (unlike EpochViewCache): two callers
/// racing the same miss both compute, and the first insert wins.
template <typename Key, typename Value>
class LruCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Entries dropped to make room for an insert.
    std::uint64_t evictions = 0;
    /// Entries dropped by EraseIf (not counted as evictions).
    std::uint64_t invalidations = 0;
  };

  explicit LruCache(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  /// Returns the value cached under `key` (counting a hit), or a null
  /// Value (counting a miss).
  Value Lookup(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return Value();
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.value;
  }

  /// Caches `value` under `key` and returns the cached copy. A racing
  /// insert keeps the existing entry: both callers computed the same
  /// answer, so either is correct.
  Value Insert(const Key& key, Value value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.value;
    }
    while (entries_.size() >= capacity_) {
      EraseLocked(entries_.find(lru_.back()));
      ++stats_.evictions;
    }
    lru_.push_front(key);
    return entries_.emplace(key, Entry{std::move(value), lru_.begin()})
        .first->second.value;
  }

  /// Drops every entry whose key satisfies `pred`.
  template <typename Pred>
  void EraseIf(const Pred& pred) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto next = std::next(it);
      if (pred(it->first)) {
        EraseLocked(it);
        ++stats_.invalidations;
      }
      it = next;
    }
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Entry {
    Value value;
    typename std::list<Key>::iterator lru_pos;
  };
  using EntryMap = std::map<Key, Entry>;

  void EraseLocked(typename EntryMap::iterator it) {
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  EntryMap entries_;
  /// Most recently used at the front.
  std::list<Key> lru_;
  Stats stats_;
};

/// Compiled plans, keyed by the canonical query text (the parsed query
/// round-tripped, so "/play//act" and "//play//act" share one entry).
/// Plans reference the snapshot only by tag name, so one entry serves
/// every view and epoch: plan entries are only LRU-evicted.
using PlanCache = LruCache<std::string, std::shared_ptr<const PhysicalPlan>>;

/// The snapshot point a cached result answers for: canonical query text
/// plus the (epoch, committed journal bytes) an EpochPin captures, so a
/// key can never alias two different document states.
struct ResultKey {
  std::string query;
  std::uint64_t epoch = 0;
  std::uint64_t journal_bytes = 0;

  auto operator<=>(const ResultKey&) const = default;
};

/// Query results by snapshot point. Superseded epochs are swept with
/// EraseIf (QueryPlanner::EvictStale); intra-epoch journal growth mints
/// new keys, and the capacity bound ages the dead ones out.
using ResultCache =
    LruCache<ResultKey, std::shared_ptr<const std::vector<NodeId>>>;

}  // namespace primelabel

#endif  // PRIMELABEL_PLANNER_PLAN_CACHE_H_
