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

Result<ScTable> ScTable::FromRecords(int group_size,
                                     std::vector<ScRecord> records) {
  ScTable table(group_size);
  table.records_ = std::move(records);
  auto corrupt = [](std::size_t r, const std::string& what) {
    return Status::Corruption("SC record " + std::to_string(r) + " " + what);
  };
  // The records first, then the index: the derived orders are allocated
  // back to back, without hash nodes between them, which keeps the
  // per-record scan of every ordered insert dense.
  std::vector<std::uint64_t> product;
  for (std::size_t r = 0; r < table.records_.size(); ++r) {
    ScRecord& record = table.records_[r];
    const bool derive = record.orders.empty();
    if (!derive && record.moduli.size() != record.orders.size()) {
      return corrupt(r, "pairs " + std::to_string(record.moduli.size()) +
                            " moduli with " +
                            std::to_string(record.orders.size()) + " orders");
    }
    if (record.moduli.empty()) continue;
    if (derive) record.orders.reserve(record.moduli.size());
    for (std::size_t i = 0; i < record.moduli.size(); ++i) {
      const std::uint64_t modulus = record.moduli[i];
      if (modulus < 2) {
        return corrupt(r, "has modulus " + std::to_string(modulus));
      }
      // The paper's recovery, order = sc mod self: a stored order must
      // agree with it, a missing one is derived from it.
      const std::uint64_t recovered = record.sc.ModU64(modulus);
      if (derive) {
        record.orders.push_back(recovered);
      } else if (record.orders[i] >= modulus) {
        return corrupt(r, "stores order " + std::to_string(record.orders[i]) +
                              " for modulus " + std::to_string(modulus));
      } else if (record.orders[i] != recovered) {
        return corrupt(r, "stores order " + std::to_string(record.orders[i]) +
                              " for modulus " + std::to_string(modulus) +
                              " but its SC value leaves " +
                              std::to_string(recovered));
      }
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
  }
  for (std::size_t r = 0; r < table.records_.size(); ++r) {
    const ScRecord& record = table.records_[r];
    for (std::size_t i = 0; i < record.moduli.size(); ++i) {
      if (!table.index_.emplace(record.moduli[i], std::make_pair(r, i))
               .second) {
        return corrupt(r, "repeats modulus " + std::to_string(record.moduli[i]));
      }
      table.max_order_ = std::max(table.max_order_, record.orders[i]);
    }
  }
  return table;
}

void ScTable::Recompute(std::size_t record_index) {
  ScRecord& record = records_[record_index];
  std::vector<Congruence> system;
  system.reserve(record.moduli.size());
  for (std::size_t i = 0; i < record.moduli.size(); ++i) {
    system.push_back({record.moduli[i], record.orders[i]});
  }
  // Garner's recurrence; bit-identical to SolveCrt (crt_test asserts the
  // equivalence), so persisted SC values are unaffected.
  Result<BigInt> solution = SolveCrtFast(system);
  PL_CHECK(solution.ok());
  record.sc = std::move(solution.value());
  record.max_modulus =
      *std::max_element(record.moduli.begin(), record.moduli.end());
}

std::size_t ScTable::Add(std::uint64_t self, std::uint64_t order) {
  PL_CHECK(order < self);
  PL_CHECK(index_.find(self) == index_.end());
  if (records_.empty() ||
      records_.back().moduli.size() >=
          static_cast<std::size_t>(group_size_)) {
    records_.emplace_back();
  }
  std::size_t record_index = records_.size() - 1;
  ScRecord& record = records_[record_index];
  record.moduli.push_back(self);
  record.orders.push_back(order);
  index_[self] = {record_index, record.moduli.size() - 1};
  max_order_ = std::max(max_order_, order);
  return record_index;
}

void ScTable::Build(const std::vector<std::uint64_t>& selves) {
  records_.clear();
  index_.clear();
  max_order_ = 0;
  for (std::size_t k = 0; k < selves.size(); ++k) Add(selves[k], k + 1);
  for (std::size_t r = 0; r < records_.size(); ++r) {
    Recompute(r);
  }
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
  PL_CHECK(position < self);

  // Shift every order number >= position up by one, relabeling nodes whose
  // order number would reach their modulus. A record whose members all
  // shift, none relabeled, stays solved by sc + 1 (DESIGN.md §18); every
  // other touched record is re-solved.
  std::vector<std::size_t> bumped;
  std::vector<std::size_t> resolve;
  for (std::size_t r = 0; r < records_.size(); ++r) {
    ScRecord& record = records_[r];
    std::size_t shifted = 0;
    bool relabeled = false;
    for (std::size_t i = 0; i < record.orders.size(); ++i) {
      if (record.orders[i] < position) continue;
      ++record.orders[i];
      ++shifted;
      if (record.orders[i] >= record.moduli[i]) {
        std::uint64_t old_self = record.moduli[i];
        std::uint64_t new_self = relabel(old_self);
        PL_CHECK(new_self > record.orders[i]);
        index_.erase(old_self);
        record.moduli[i] = new_self;
        index_[new_self] = {r, i};
        ++stats.nodes_relabeled;
        relabeled = true;
      }
      max_order_ = std::max(max_order_, record.orders[i]);
    }
    if (shifted == 0) continue;
    (shifted == record.orders.size() && !relabeled ? bumped : resolve)
        .push_back(r);
  }

  // The new congruence lands in the last record, which is re-solved either
  // way and counted once.
  std::size_t landed = Add(self, position);
  if (!bumped.empty() && bumped.back() == landed) bumped.pop_back();
  if (resolve.empty() || resolve.back() != landed) resolve.push_back(landed);
  for (std::size_t r : bumped) ++records_[r].sc;
  for (std::size_t r : resolve) Recompute(r);
  stats.records_updated = static_cast<int>(bumped.size() + resolve.size());
  return stats;
}

ScUpdateStats ScTable::Append(std::uint64_t self) {
  ScUpdateStats stats;
  std::size_t landed = Add(self, max_order_ + 1);
  Recompute(landed);
  stats.records_updated = 1;
  return stats;
}

bool ScTable::VerifyIntegrity() const {
  std::size_t indexed = 0;
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const ScRecord& record = records_[r];
    if (record.moduli.size() != record.orders.size()) return false;
    for (std::size_t i = 0; i < record.moduli.size(); ++i) {
      if (record.orders[i] >= record.moduli[i]) return false;
      // The paper's recovery, as OrderOf runs it: order = sc mod self.
      if (record.sc.ModU64(record.moduli[i]) != record.orders[i]) return false;
      auto it = index_.find(record.moduli[i]);
      if (it == index_.end() || it->second != std::make_pair(r, i)) {
        return false;
      }
      ++indexed;
    }
    if (!record.moduli.empty() &&
        record.max_modulus !=
            *std::max_element(record.moduli.begin(), record.moduli.end())) {
      return false;
    }
  }
  return indexed == index_.size();
}

bool ScTable::Remove(std::uint64_t self) {
  auto it = index_.find(self);
  if (it == index_.end()) return false;
  auto [record_index, slot] = it->second;
  ScRecord& record = records_[record_index];
  // Swap-erase within the record and fix the displaced node's slot.
  std::size_t last = record.moduli.size() - 1;
  if (slot != last) {
    record.moduli[slot] = record.moduli[last];
    record.orders[slot] = record.orders[last];
    index_[record.moduli[slot]] = {record_index, slot};
  }
  record.moduli.pop_back();
  record.orders.pop_back();
  index_.erase(it);
  if (record.moduli.empty()) {
    // Keep empty records out of Recompute; leave the hole in place so other
    // records' indexes stay valid.
    record.sc = BigInt(0);
    record.max_modulus = 0;
  } else {
    Recompute(record_index);
  }
  return true;
}

}  // namespace primelabel
