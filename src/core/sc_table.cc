#include "core/sc_table.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "primes/prime_source.h"
#include "util/status.h"

namespace primelabel {

ScTable::ScTable(int group_size) : group_size_(group_size) {
  PL_CHECK(group_size_ >= 1);
}

namespace {

/// True when 0 <= sc < the product of `moduli` (each >= 2): the range
/// Garner's recurrence solves into. The product is built in `product`'s
/// limbs, one word multiply per modulus, because BigInt's operator*=
/// allocates a fresh value per multiply: over the corpus's 12,301 records
/// this check took 2.8 ms that way and 0.3 ms here, of a 16.7 ms
/// FromRecords (one Xeon core).
bool BelowProductOf(const BigInt& sc, const std::vector<std::uint64_t>& moduli,
                    std::vector<std::uint64_t>* product) {
  if (sc.Sign() < 0) return false;
  product->assign(1, 1);
  for (std::uint64_t m : moduli) {
    unsigned __int128 carry = 0;
    for (std::uint64_t& limb : *product) {
      carry += static_cast<unsigned __int128>(limb) * m;
      limb = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    if (carry != 0) product->push_back(static_cast<std::uint64_t>(carry));
  }
  const std::span<const std::uint64_t> value = sc.Magnitude();
  if (value.size() != product->size()) return value.size() < product->size();
  return std::lexicographical_compare(value.rbegin(), value.rend(),
                                      product->rbegin(), product->rend());
}

}  // namespace

ScTable::Bounds ScTable::BoundsOf(std::span<const Congruence> pairs) {
  Bounds bounds;
  for (const Congruence& pair : pairs) {
    bounds.lowest = std::min(bounds.lowest, pair.remainder);
    bounds.highest = std::max(bounds.highest, pair.remainder);
    bounds.slack = std::min(bounds.slack, pair.modulus - 1 - pair.remainder);
  }
  return bounds;
}

void ScTable::SetBounds(std::size_t r, const Bounds& bounds) {
  records_at_slack_zero_ -= slack_[r] == 0 ? 1 : 0;
  records_at_slack_zero_ += bounds.slack == 0 ? 1 : 0;
  lowest_[r] = bounds.lowest;
  highest_[r] = bounds.highest;
  slack_[r] = bounds.slack;
}

void ScTable::DerivePairs(std::size_t r,
                          std::vector<Congruence>* pairs) const {
  const ScRecord& record = records_[r];
  for (std::uint64_t modulus : record.moduli) {
    pairs->push_back({modulus, record.sc.ModU64(modulus)});
  }
}

void ScTable::Solve(std::size_t r, const std::vector<Congruence>& pairs) {
  ScRecord& record = records_[r];
  if (pairs.empty()) {
    // An emptied record stays in place, so other records' indexes hold.
    record.sc = BigInt(0);
    record.max_modulus = 0;
  } else {
    // Garner's recurrence; bit-identical to SolveCrt (crt_test asserts
    // the equivalence), so persisted SC values are unaffected.
    Result<BigInt> solution = SolveCrtFast(pairs);
    PL_CHECK(solution.ok());
    record.sc = std::move(solution.value());
    record.max_modulus =
        *std::max_element(record.moduli.begin(), record.moduli.end());
  }
  SetBounds(r, BoundsOf(pairs));
}

Result<ScTable> ScTable::FromRecords(int group_size,
                                     std::vector<ScRecord> records) {
  ScTable table(group_size);
  table.records_ = std::move(records);
  const std::size_t count = table.records_.size();
  const Bounds empty;
  table.lowest_.assign(count, empty.lowest);
  table.highest_.assign(count, empty.highest);
  table.slack_.assign(count, empty.slack);
  auto corrupt = [](std::size_t r, const std::string& what) {
    return Status::Corruption("SC record " + std::to_string(r) + " " + what);
  };
  std::vector<std::uint64_t> product;
  std::vector<Congruence> pairs;
  for (std::size_t r = 0; r < count; ++r) {
    ScRecord& record = table.records_[r];
    if (record.moduli.size() > static_cast<std::size_t>(group_size)) {
      return corrupt(r, "holds " + std::to_string(record.moduli.size()) +
                            " moduli in groups of " +
                            std::to_string(group_size));
    }
    if (record.moduli.empty()) {
      // An emptied record's value is the empty product's only residue.
      if (!record.sc.IsZero()) {
        return corrupt(r, "has no moduli but a nonzero SC value");
      }
      continue;
    }
    pairs.clear();
    for (std::uint64_t modulus : record.moduli) {
      if (modulus < 2) {
        return corrupt(r, "has modulus " + std::to_string(modulus));
      }
      // The paper's recovery: order = sc mod self.
      pairs.push_back({modulus, record.sc.ModU64(modulus)});
      // Distinct primes are coprime, so only a modulus the prime stream
      // does not hold is compared with the rest of its record.
      if (PrimeSource::IsPrime(modulus)) continue;
      for (std::uint64_t other : record.moduli) {
        if (other != modulus && std::gcd(other, modulus) != 1) {
          return corrupt(r, "has moduli " + std::to_string(modulus) +
                                " and " + std::to_string(other) +
                                " sharing a factor");
        }
      }
    }
    if (!BelowProductOf(record.sc, record.moduli, &product)) {
      return corrupt(r, "has an SC value not below its moduli's product");
    }
    record.max_modulus =
        *std::max_element(record.moduli.begin(), record.moduli.end());
    table.SetBounds(r, BoundsOf(pairs));
  }
  for (std::size_t r = 0; r < count; ++r) {
    const ScRecord& record = table.records_[r];
    for (std::size_t i = 0; i < record.moduli.size(); ++i) {
      if (!table.index_.emplace(record.moduli[i], std::make_pair(r, i))
               .second) {
        return corrupt(r,
                       "repeats modulus " + std::to_string(record.moduli[i]));
      }
    }
  }
  table.RederiveMaxOrder();
  return table;
}

void ScTable::Build(const std::vector<std::uint64_t>& selves) {
  const std::size_t group = static_cast<std::size_t>(group_size_);
  const std::size_t count = (selves.size() + group - 1) / group;
  const Bounds empty;
  records_.assign(count, ScRecord{});
  lowest_.assign(count, empty.lowest);
  highest_.assign(count, empty.highest);
  slack_.assign(count, empty.slack);
  records_at_slack_zero_ = 0;
  index_.clear();
  std::vector<Congruence> pairs;
  for (std::size_t r = 0; r < count; ++r) {
    ScRecord& record = records_[r];
    pairs.clear();
    const std::size_t end = std::min(selves.size(), r * group + group);
    record.moduli.reserve(end - r * group);
    for (std::size_t k = r * group; k < end; ++k) {
      PL_CHECK(k + 1 < selves[k]);
      record.moduli.push_back(selves[k]);
      pairs.push_back({selves[k], k + 1});
    }
    Solve(r, pairs);
  }
  // The index after the records, as FromRecords builds it: the SC values
  // InsertAt bumps are then allocated back to back, not between hash
  // nodes.
  for (std::size_t k = 0; k < selves.size(); ++k) {
    PL_CHECK(index_.emplace(selves[k], std::make_pair(k / group, k % group))
                 .second);
  }
  max_order_ = selves.size();
}

std::uint64_t ScTable::OrderOf(std::uint64_t self) const {
  auto it = index_.find(self);
  PL_CHECK(it != index_.end());
  const ScRecord& record = records_[it->second.first];
  // The paper's recovery: order = SC mod self-label.
  return record.sc.ModU64(self);
}

bool ScTable::Contains(std::uint64_t self) const {
  return index_.find(self) != index_.end();
}

ScUpdateStats ScTable::InsertAt(
    std::uint64_t self, std::uint64_t position,
    const std::function<std::uint64_t(std::uint64_t)>& relabel) {
  ScUpdateStats stats;
  PL_CHECK(index_.find(self) == index_.end());
  PL_CHECK(position >= 1 && position < self);

  // The new congruence joins the last record, or a fresh one when that is
  // full. That record is re-solved after the pass either way, and counted
  // once.
  if (records_.empty() ||
      records_.back().moduli.size() >= static_cast<std::size_t>(group_size_)) {
    const Bounds empty;
    records_.emplace_back();
    lowest_.push_back(empty.lowest);
    highest_.push_back(empty.highest);
    slack_.push_back(empty.slack);
  }
  const std::size_t landed = records_.size() - 1;

  // Derives record r's pairs into `pairs` and shifts every order >=
  // position up by one, handing a fresh self-label to each member whose
  // order reaches its modulus.
  std::vector<Congruence> pairs;
  pairs.reserve(static_cast<std::size_t>(group_size_));
  auto shift = [&](std::size_t r) {
    ScRecord& record = records_[r];
    pairs.clear();
    DerivePairs(r, &pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      Congruence& pair = pairs[i];
      if (pair.remainder < position || ++pair.remainder < pair.modulus) {
        continue;
      }
      const std::uint64_t fresh = relabel(pair.modulus);
      PL_CHECK(fresh > pair.remainder);
      index_.erase(pair.modulus);
      index_[fresh] = {r, i};
      record.moduli[i] = pair.modulus = fresh;
      ++stats.nodes_relabeled;
    }
  };

  for (std::size_t r = 0; r < landed; ++r) {
    if (highest_[r] < position) continue;  // wholly before, or emptied
    ++stats.records_updated;
    if (lowest_[r] >= position && slack_[r] > 0) {
      // Every member shifts and none reaches its modulus: sc + 1 is the
      // re-solve's value (DESIGN.md §18), and the bounds move with it.
      ++records_[r].sc;
      ++lowest_[r];
      ++highest_[r];
      if (--slack_[r] == 0) ++records_at_slack_zero_;
    } else {
      shift(r);
      Solve(r, pairs);
    }
    max_order_ = std::max(max_order_, highest_[r]);
  }

  shift(landed);
  PL_CHECK(index_.emplace(self, std::make_pair(landed, pairs.size())).second);
  records_[landed].moduli.push_back(self);
  pairs.push_back({self, position});
  Solve(landed, pairs);
  ++stats.records_updated;
  max_order_ = std::max(max_order_, highest_[landed]);
  return stats;
}

void ScTable::RederiveMaxOrder() {
  max_order_ = 0;
  for (std::uint64_t highest : highest_) {
    max_order_ = std::max(max_order_, highest);
  }
}

bool ScTable::VerifyIntegrity() const {
  const std::size_t count = records_.size();
  if (lowest_.size() != count || highest_.size() != count ||
      slack_.size() != count) {
    return false;
  }
  std::size_t indexed = 0;
  std::size_t at_slack_zero = 0;
  std::vector<Congruence> pairs;
  std::vector<std::uint64_t> product;
  for (std::size_t r = 0; r < count; ++r) {
    const ScRecord& record = records_[r];
    if (record.moduli.size() > static_cast<std::size_t>(group_size_)) {
      return false;
    }
    for (std::size_t i = 0; i < record.moduli.size(); ++i) {
      auto it = index_.find(record.moduli[i]);
      if (it == index_.end() || it->second != std::make_pair(r, i)) {
        return false;
      }
      ++indexed;
    }
    if (record.moduli.empty()) {
      if (!record.sc.IsZero() || record.max_modulus != 0) return false;
    } else if (record.max_modulus != *std::max_element(record.moduli.begin(),
                                                       record.moduli.end()) ||
               !BelowProductOf(record.sc, record.moduli, &product)) {
      return false;
    }
    // The bounds InsertAt keeps must be those of the orders sc leaves.
    pairs.clear();
    DerivePairs(r, &pairs);
    const Bounds bounds = BoundsOf(pairs);
    if (lowest_[r] != bounds.lowest || highest_[r] != bounds.highest ||
        slack_[r] != bounds.slack || bounds.highest > max_order_) {
      return false;
    }
    if (bounds.slack == 0) ++at_slack_zero;
  }
  return indexed == index_.size() &&
         at_slack_zero == records_at_slack_zero_;
}

bool ScTable::Remove(std::uint64_t self) {
  auto it = index_.find(self);
  if (it == index_.end()) return false;
  const auto [r, slot] = it->second;
  index_.erase(it);
  ScRecord& record = records_[r];
  // The survivors' orders, read off the value before it changes; the last
  // member moves into the freed slot.
  std::vector<Congruence> pairs;
  DerivePairs(r, &pairs);
  const std::size_t last = pairs.size() - 1;
  if (slot != last) {
    pairs[slot] = pairs[last];
    record.moduli[slot] = record.moduli[last];
    index_[record.moduli[slot]] = {r, slot};
  }
  pairs.pop_back();
  record.moduli.pop_back();
  Solve(r, pairs);
  return true;
}

}  // namespace primelabel
