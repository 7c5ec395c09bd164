#include "core/sc_table.h"

#include <algorithm>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/crt.h"
#include "primes/prime_source.h"
#include "util/rng.h"

namespace primelabel {
namespace {

// The self-labels of the paper's Figure 9 tree, in document order.
const std::vector<std::uint64_t> kFigure9Selves = {2, 3, 5, 7, 11, 13};

TEST(ScTable, SingleGlobalScValueMatchesFigure9) {
  ScTable table(/*group_size=*/100);
  table.Build(kFigure9Selves);
  ASSERT_EQ(table.records().size(), 1u);
  EXPECT_EQ(table.records()[0].sc.ToDecimalString(), "29243");
  EXPECT_EQ(table.records()[0].max_modulus, 13u);
  for (std::size_t k = 0; k < kFigure9Selves.size(); ++k) {
    EXPECT_EQ(table.OrderOf(kFigure9Selves[k]), k + 1);
  }
}

TEST(ScTable, GroupOfFiveMatchesFigure10) {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  ASSERT_EQ(table.records().size(), 2u);
  EXPECT_EQ(table.records()[0].sc.ToDecimalString(), "1523");
  EXPECT_EQ(table.records()[0].max_modulus, 11u);
  EXPECT_EQ(table.records()[1].sc.ToDecimalString(), "6");
  EXPECT_EQ(table.records()[1].max_modulus, 13u);
}

TEST(ScTable, InsertMatchesFigure11And12) {
  // Insert a node with self-label 17 so its order number is 3 (the paper's
  // new node in Figure 11). Orders of nodes after it shift by one.
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  ScUpdateStats stats = table.InsertAt(
      17, 3, [](std::uint64_t) -> std::uint64_t {
        ADD_FAILURE() << "no relabel expected";
        return 0;
      });
  // Both records change: the first holds shifted orders, the second gains
  // the new congruence.
  EXPECT_EQ(stats.records_updated, 2);
  EXPECT_EQ(stats.nodes_relabeled, 0);
  EXPECT_EQ(table.OrderOf(17), 3u);
  EXPECT_EQ(table.OrderOf(2), 1u);
  EXPECT_EQ(table.OrderOf(3), 2u);
  EXPECT_EQ(table.OrderOf(5), 4u);   // shifted
  EXPECT_EQ(table.OrderOf(7), 5u);
  EXPECT_EQ(table.OrderOf(11), 6u);
  EXPECT_EQ(table.OrderOf(13), 7u);
  // Figure 12's second record: x mod 13 = 7, x mod 17 = 3.
  const ScRecord& second = table.records()[1];
  EXPECT_EQ((second.sc % BigInt(13)).ToDecimalString(), "7");
  EXPECT_EQ((second.sc % BigInt(17)).ToDecimalString(), "3");
  EXPECT_EQ(second.max_modulus, 17u);
}

TEST(ScTable, AppendAddsAtEnd) {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  ScUpdateStats stats = table.Append(17);
  EXPECT_EQ(stats.records_updated, 1);
  EXPECT_EQ(table.OrderOf(17), 7u);
  EXPECT_EQ(table.max_order(), 7u);
}

TEST(ScTable, InsertAtEndTouchesOneRecord) {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  ScUpdateStats stats = table.InsertAt(
      17, 7, [](std::uint64_t) -> std::uint64_t { return 0; });
  EXPECT_EQ(stats.records_updated, 1);  // nothing shifts
  EXPECT_EQ(table.OrderOf(17), 7u);
}

TEST(ScTable, RelabelsNodesWhoseOrderReachesModulus) {
  // Inserting at position 1 shifts self 2 to order 2 and self 3 to order 3;
  // neither modulus can encode its new order, so both are relabeled.
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  std::vector<std::uint64_t> relabeled_selves;
  const std::uint64_t fresh_primes[] = {29, 31};
  ScUpdateStats stats =
      table.InsertAt(19, 1, [&](std::uint64_t old_self) -> std::uint64_t {
        relabeled_selves.push_back(old_self);
        return fresh_primes[relabeled_selves.size() - 1];
      });
  EXPECT_EQ(relabeled_selves, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(stats.nodes_relabeled, 2);
  EXPECT_EQ(table.OrderOf(19), 1u);
  EXPECT_FALSE(table.Contains(2));
  EXPECT_FALSE(table.Contains(3));
  EXPECT_EQ(table.OrderOf(29), 2u);  // relabeled node, shifted order
  EXPECT_EQ(table.OrderOf(31), 3u);
  EXPECT_EQ(table.OrderOf(5), 4u);
}

TEST(ScTable, RemoveKeepsOtherOrders) {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  EXPECT_TRUE(table.Remove(5));
  EXPECT_FALSE(table.Contains(5));
  EXPECT_FALSE(table.Remove(5));  // already gone
  // Deletion leaves every other order untouched (Section 4.2).
  EXPECT_EQ(table.OrderOf(2), 1u);
  EXPECT_EQ(table.OrderOf(7), 4u);
  EXPECT_EQ(table.OrderOf(13), 6u);
}

TEST(ScTable, RemoveWholeRecordThenReuse) {
  ScTable table(/*group_size=*/2);
  table.Build({2, 3, 5});
  EXPECT_TRUE(table.Remove(5));  // empties the second record
  table.Append(7);
  EXPECT_EQ(table.OrderOf(7), 4u);
  EXPECT_EQ(table.OrderOf(2), 1u);
}

TEST(ScTable, GroupSizeOneDegeneratesToDirectStorage) {
  ScTable table(/*group_size=*/1);
  table.Build(kFigure9Selves);
  EXPECT_EQ(table.records().size(), 6u);
  for (const ScRecord& record : table.records()) {
    ASSERT_EQ(record.moduli.size(), 1u);
    EXPECT_EQ(record.sc.ToUint64() % record.moduli[0], record.orders[0]);
  }
  // An insert near the front updates every following record — group size
  // trades record-update cost against SC value size. (Self 3 shifts to
  // order 3 and must be relabeled.)
  ScUpdateStats stats = table.InsertAt(
      17, 2, [](std::uint64_t old_self) -> std::uint64_t {
        EXPECT_EQ(old_self, 3u);
        return 19;
      });
  EXPECT_EQ(stats.records_updated, 6);  // five shifted + one new
  EXPECT_EQ(stats.nodes_relabeled, 1);
  EXPECT_EQ(table.OrderOf(19), 3u);
}

TEST(ScTable, ScModSelfAlwaysRecoversOrder) {
  PrimeSource primes;
  for (int group_size : {1, 3, 5, 10, 64}) {
    ScTable table(group_size);
    std::vector<std::uint64_t> selves;
    for (std::size_t i = 0; i < 300; ++i) selves.push_back(primes.PrimeAt(i));
    table.Build(selves);
    for (std::size_t k = 0; k < selves.size(); ++k) {
      EXPECT_EQ(table.OrderOf(selves[k]), k + 1)
          << "group_size=" << group_size << " k=" << k;
    }
  }
}

TEST(ScTable, VerifyIntegrityHoldsThroughAllOperations) {
  PrimeSource primes;
  primes.SkipFirst(3);
  ScTable table(/*group_size=*/3);
  std::vector<std::uint64_t> selves;
  for (int i = 0; i < 30; ++i) selves.push_back(primes.Next());
  table.Build(selves);
  ASSERT_TRUE(table.VerifyIntegrity());
  table.Append(primes.Next());
  ASSERT_TRUE(table.VerifyIntegrity());
  table.InsertAt(primes.Next(), 5,
                 [&](std::uint64_t) { return primes.Next(); });
  ASSERT_TRUE(table.VerifyIntegrity());
  ASSERT_TRUE(table.Remove(selves[10]));
  ASSERT_TRUE(table.VerifyIntegrity());
  ASSERT_TRUE(table.Remove(selves[11]));
  ASSERT_TRUE(table.Remove(selves[9]));  // empties a record
  EXPECT_TRUE(table.VerifyIntegrity());
}

TEST(ScTable, FromRecordsRebuildsIndexAndVerifies) {
  ScTable original(/*group_size=*/5);
  original.Build(kFigure9Selves);
  Result<ScTable> restored =
      ScTable::FromRecords(original.group_size(), original.records());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const ScTable& rebuilt = restored.value();
  EXPECT_TRUE(rebuilt.VerifyIntegrity());
  for (std::uint64_t self : kFigure9Selves) {
    EXPECT_EQ(rebuilt.OrderOf(self), original.OrderOf(self));
  }
  EXPECT_EQ(rebuilt.max_order(), original.max_order());
}

// FromRecords rebuilds a table from decoded bytes, so every record shape
// the solver cannot take, and every duplicate the index would silently
// absorb, must come back as kCorruption instead of aborting.

/// Figure 10's records (group of five over the Figure 9 selves): moduli
/// {2, 3, 5, 7, 11} and {13}.
std::vector<ScRecord> Figure10Records() {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  return table.records();
}

void ExpectCorruptRecords(std::vector<ScRecord> records,
                          const std::string& context) {
  Result<ScTable> table = ScTable::FromRecords(5, std::move(records));
  ASSERT_FALSE(table.ok()) << context;
  EXPECT_EQ(table.status().code(), StatusCode::kCorruption)
      << context << ": " << table.status().ToString();
}

TEST(ScTable, FromRecordsRejectsAModulusBelowTwo) {
  for (std::uint64_t modulus : {0u, 1u}) {
    std::vector<ScRecord> records = Figure10Records();
    records[0].moduli[1] = modulus;
    records[0].orders[1] = 0;
    ExpectCorruptRecords(records, "modulus " + std::to_string(modulus));
  }
}

TEST(ScTable, FromRecordsRejectsAModulusRepeatedWithinARecord) {
  std::vector<ScRecord> records = Figure10Records();
  records[0].moduli[1] = records[0].moduli[0];
  records[0].orders[1] = records[0].orders[0];
  ExpectCorruptRecords(records, "repeat within record 0");
}

TEST(ScTable, FromRecordsRejectsAModulusRepeatedAcrossRecords) {
  // Coprime within each record, so every solve succeeds: only the
  // table-wide index sees the repeat.
  std::vector<ScRecord> records = Figure10Records();
  records[1].moduli[0] = records[0].moduli[2];
  records[1].orders[0] = records[0].orders[2];
  ExpectCorruptRecords(records, "repeat across records");
}

TEST(ScTable, FromRecordsRejectsAnOrderNotBelowItsModulus) {
  std::vector<ScRecord> records = Figure10Records();
  records[0].orders[3] = records[0].moduli[3];
  ExpectCorruptRecords(records, "order == modulus");
}

TEST(ScTable, FromRecordsRejectsRecordsThatDoNotSolve) {
  // 4 and 6 share a factor: no CRT solution to check against.
  std::vector<ScRecord> records = Figure10Records();
  records[0].moduli = {4, 6};
  records[0].orders = {1, 2};
  ExpectCorruptRecords(records, "moduli 4 and 6");
}

TEST(ScTable, FromRecordsAdoptsStoredValuesAndDerivesMissingOrders) {
  // The load paths hand over SC values without orders (v4/v5, PLDELTA2):
  // the table adopts each value as stored and reads its orders off it.
  std::vector<ScRecord> records = Figure10Records();
  for (ScRecord& record : records) record.orders.clear();
  Result<ScTable> adopted = ScTable::FromRecords(5, records);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_TRUE(adopted->VerifyIntegrity());
  for (std::size_t r = 0; r < records.size(); ++r) {
    EXPECT_EQ(adopted->records()[r].sc, records[r].sc);
    EXPECT_EQ(adopted->records()[r].orders, Figure10Records()[r].orders);
  }
  EXPECT_EQ(adopted->max_order(), 6u);
}

TEST(ScTable, FromRecordsRejectsValuesASolveWouldNotGive) {
  // A re-solve would have replaced each of these values; adopting them
  // instead must reject them.
  {
    // An order the stored value does not leave.
    std::vector<ScRecord> records = Figure10Records();
    records[0].orders[2] = (records[0].orders[2] + 1) % records[0].moduli[2];
    ExpectCorruptRecords(records, "order that sc mod modulus contradicts");
  }
  {
    // The right residues, but not the least solution: sc + 2*3*5*7*11.
    std::vector<ScRecord> records = Figure10Records();
    records[0].sc += BigInt(2310);
    ExpectCorruptRecords(records, "sc past the product of its moduli");
  }
  {
    std::vector<ScRecord> records = Figure10Records();
    records[1].sc = BigInt(-1);
    ExpectCorruptRecords(records, "negative sc");
  }
  {
    // Consistent residues (9 mod 4 = 1, 9 mod 6 = 3) below 4 * 6, but 4
    // and 6 share a factor, so no solve takes this record.
    std::vector<ScRecord> records = Figure10Records();
    records[0].moduli = {4, 6};
    records[0].orders = {1, 3};
    records[0].sc = BigInt(9);
    ExpectCorruptRecords(records, "consistent moduli 4 and 6");
  }
}

TEST(ScTable, FromRecordsRejectsUnpairedModuliAndOrders) {
  std::vector<ScRecord> records = Figure10Records();
  records[0].orders.pop_back();
  ExpectCorruptRecords(records, "four orders for five moduli");
}

TEST(ScTable, RandomInsertSequenceKeepsOrdersConsistent) {
  // Model: maintain a reference vector of selves in document order and
  // compare orders after each random insertion.
  PrimeSource primes;
  primes.SkipFirst(3);  // start at 7 so early orders stay below moduli
  ScTable table(/*group_size=*/4);
  std::vector<std::uint64_t> reference;
  for (int i = 0; i < 40; ++i) reference.push_back(primes.Next());
  table.Build(reference);

  Rng rng(2024);
  for (int round = 0; round < 60; ++round) {
    std::uint64_t self = primes.Next();
    std::uint64_t position = 1 + rng.Below(reference.size() + 1);
    table.InsertAt(self, position,
                   [&](std::uint64_t old_self) -> std::uint64_t {
                     std::uint64_t fresh = primes.Next();
                     for (auto& s : reference) {
                       if (s == old_self) s = fresh;
                     }
                     return fresh;
                   });
    reference.insert(reference.begin() +
                         static_cast<std::ptrdiff_t>(position - 1),
                     self);
    ASSERT_EQ(table.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      ASSERT_EQ(table.OrderOf(reference[k]), k + 1)
          << "round " << round << " k " << k;
    }
  }
}

// The Figure 18 count of an insert at `position`, taken from the records
// before it: every record holding an order >= position, plus the record
// the new congruence lands in (the last one, or a fresh one when the last
// is full), counted once.
int ExpectedRecordsUpdated(const std::vector<ScRecord>& before,
                           std::size_t group_size, std::uint64_t position) {
  auto shifts = [position](const ScRecord& record) {
    return std::any_of(record.orders.begin(), record.orders.end(),
                       [position](std::uint64_t o) { return o >= position; });
  };
  int count = static_cast<int>(std::count_if(before.begin(), before.end(),
                                             shifts));
  const bool lands_in_last =
      !before.empty() && before.back().moduli.size() < group_size;
  if (!lands_in_last || !shifts(before.back())) ++count;
  return count;
}

// Every record's SC value must equal the textbook CRT solution over its
// own (modulus, order) pairs; emptied records hold zero.
void ExpectRecordsMatchSolveCrt(const ScTable& table) {
  for (std::size_t r = 0; r < table.records().size(); ++r) {
    const ScRecord& record = table.records()[r];
    if (record.moduli.empty()) {
      ASSERT_TRUE(record.sc.IsZero()) << "record " << r;
      continue;
    }
    std::vector<Congruence> system;
    for (std::size_t i = 0; i < record.moduli.size(); ++i) {
      system.push_back({record.moduli[i], record.orders[i]});
    }
    Result<BigInt> oracle = SolveCrt(system);
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(record.sc, oracle.value()) << "record " << r;
  }
}

TEST(ScTable, DifferentialInsertRemoveAgainstSolveCrt) {
  enum class Where { kFront, kEnd, kTrailingRecord, kRandom };
  // 100 is the largest group bench_ablation_sc_group runs: records past
  // the 64 moduli crt_test's sweep reaches.
  for (int group_size : {1, 2, 5, 20, 100}) {
    SCOPED_TRACE("group_size=" + std::to_string(group_size));
    PrimeSource primes;  // from 2: early nodes outgrow their moduli
    std::map<std::uint64_t, std::uint64_t> model;  // self -> order
    std::vector<std::uint64_t> selves;
    for (int i = 0; i < 60; ++i) selves.push_back(primes.Next());
    for (std::size_t k = 0; k < selves.size(); ++k) model[selves[k]] = k + 1;
    ScTable table(group_size);
    table.Build(selves);

    Rng rng(static_cast<std::uint64_t>(group_size) * 97 + 11);
    int relabels = 0;
    for (int op = 0; op < 240; ++op) {
      if (!model.empty() && rng.Chance(15)) {
        auto victim = model.begin();
        std::advance(victim, static_cast<std::ptrdiff_t>(
                                 rng.Below(model.size())));
        ASSERT_TRUE(table.Remove(victim->first));
        model.erase(victim);
      } else {
        std::uint64_t position = 1;
        switch (static_cast<Where>(rng.Below(4))) {
          case Where::kFront:
            break;
          case Where::kEnd:
            position = table.max_order() + 1;
            break;
          case Where::kTrailingRecord: {
            // Just below an order the last non-empty record holds: that
            // record shifts partly (or fully) and also takes the new node.
            for (auto it = table.records().rbegin();
                 it != table.records().rend(); ++it) {
              if (it->orders.empty()) continue;
              position = it->orders[rng.Below(it->orders.size())];
              break;
            }
            break;
          }
          case Where::kRandom:
            position = 1 + rng.Below(table.max_order() + 1);
            break;
        }
        const std::vector<ScRecord> before = table.records();
        const std::uint64_t self = primes.Next();
        ScUpdateStats stats = table.InsertAt(
            self, position, [&](std::uint64_t old_self) -> std::uint64_t {
              std::uint64_t fresh = primes.Next();
              model[fresh] = model.at(old_self);
              model.erase(old_self);
              ++relabels;
              return fresh;
            });
        for (auto& [s, order] : model) {
          if (order >= position) ++order;
        }
        model[self] = position;
        ASSERT_EQ(stats.records_updated,
                  ExpectedRecordsUpdated(
                      before, static_cast<std::size_t>(group_size), position))
            << "op " << op << " position " << position;
      }
      ExpectRecordsMatchSolveCrt(table);
      ASSERT_TRUE(table.VerifyIntegrity()) << "op " << op;
      ASSERT_EQ(table.size(), model.size());
      for (const auto& [s, order] : model) {
        ASSERT_EQ(table.OrderOf(s), order) << "op " << op << " self " << s;
      }
    }
    EXPECT_GT(relabels, 0);  // the front inserts must exercise relabeling
  }
}

}  // namespace
}  // namespace primelabel
