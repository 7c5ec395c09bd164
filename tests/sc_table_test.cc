#include "core/sc_table.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/crt.h"
#include "corpus/labeled_document.h"
#include "durability/crc32.h"
#include "durability/delta.h"
#include "durability/vfs.h"
#include "primes/prime_source.h"
#include "store/catalog.h"
#include "util/binio.h"
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
  ScUpdateStats stats = table.InsertAt(
      7, table.max_order() + 1, [](std::uint64_t) -> std::uint64_t {
        ADD_FAILURE() << "no relabel expected";
        return 0;
      });
  EXPECT_EQ(stats.records_updated, 1);  // the emptied record takes it
  ASSERT_EQ(table.records().size(), 2u);
  EXPECT_EQ(table.records()[1].moduli, std::vector<std::uint64_t>{7});
  EXPECT_EQ(table.OrderOf(7), 4u);
  EXPECT_EQ(table.OrderOf(2), 1u);
}

TEST(ScTable, GroupSizeOneDegeneratesToDirectStorage) {
  ScTable table(/*group_size=*/1);
  table.Build(kFigure9Selves);
  EXPECT_EQ(table.records().size(), 6u);
  for (std::size_t r = 0; r < table.records().size(); ++r) {
    const ScRecord& record = table.records()[r];
    ASSERT_EQ(record.moduli.size(), 1u);
    EXPECT_EQ(record.sc.ToUint64(), r + 1);  // the order itself
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
  table.InsertAt(primes.Next(), table.max_order() + 1,
                 [&](std::uint64_t) { return primes.Next(); });
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
/// {2, 3, 5, 7, 11} with orders 1..5 (sc 1523), and {13} with order 6.
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
    ExpectCorruptRecords(records, "modulus " + std::to_string(modulus));
  }
}

TEST(ScTable, FromRecordsRejectsAModulusRepeatedWithinARecord) {
  std::vector<ScRecord> records = Figure10Records();
  records[0].moduli[1] = records[0].moduli[0];
  ExpectCorruptRecords(records, "repeat within record 0");
}

TEST(ScTable, FromRecordsRejectsAModulusRepeatedAcrossRecords) {
  // Coprime within each record, so every solve succeeds: only the
  // table-wide index sees the repeat.
  std::vector<ScRecord> records = Figure10Records();
  records[1].moduli[0] = records[0].moduli[2];
  ExpectCorruptRecords(records, "repeat across records");
}

TEST(ScTable, FromRecordsRejectsRecordsThatDoNotSolve) {
  // 4 and 6 share a factor: no CRT solution to check against.
  std::vector<ScRecord> records = Figure10Records();
  records[0].moduli = {4, 6};
  ExpectCorruptRecords(records, "moduli 4 and 6");
}

TEST(ScTable, FromRecordsAdoptsStoredValuesAndDerivesMissingOrders) {
  // The load paths hand over SC values without orders (v4/v5, PLDELTA2):
  // the table adopts each value as stored and reads its orders off it.
  std::vector<ScRecord> records = Figure10Records();
  Result<ScTable> adopted = ScTable::FromRecords(5, records);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_TRUE(adopted->VerifyIntegrity());
  for (std::size_t r = 0; r < records.size(); ++r) {
    EXPECT_EQ(adopted->records()[r].sc, records[r].sc);
  }
  for (std::size_t k = 0; k < kFigure9Selves.size(); ++k) {
    EXPECT_EQ(adopted->OrderOf(kFigure9Selves[k]), k + 1);
  }
  EXPECT_EQ(adopted->max_order(), 6u);
  // Self 2 holds order 1 (slack 0): only the first record can lose a
  // member to a shift.
  EXPECT_EQ(adopted->relabel_bound(), 5u);
}

TEST(ScTable, FromRecordsRejectsARecordLargerThanTheGroup) {
  // CheckInsertRoom reserves at most a group's worth of replacement
  // self-labels per record at slack 0, so a larger record is refused.
  ASSERT_TRUE(ScTable::FromRecords(5, Figure10Records()).ok());
  Result<ScTable> table = ScTable::FromRecords(4, Figure10Records());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kCorruption);
}

TEST(ScTable, FromRecordsRejectsValuesASolveWouldNotGive) {
  // A re-solve would have replaced each of these values; adopting them
  // instead must reject them.
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
    // An emptied record: the empty product is 1, so only 0 solves it.
    std::vector<ScRecord> records = Figure10Records();
    records[1].moduli.clear();
    ExpectCorruptRecords(records, "emptied record holding 6");
  }
  {
    // Consistent residues (9 mod 4 = 1, 9 mod 6 = 3) below 4 * 6, but 4
    // and 6 share a factor, so no solve takes this record.
    std::vector<ScRecord> records = Figure10Records();
    records[0].moduli = {4, 6};
    records[0].sc = BigInt(9);
    ExpectCorruptRecords(records, "consistent moduli 4 and 6");
  }
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

/// The differential tests' model of the table: self-label -> order.
using OrderModel = std::map<std::uint64_t, std::uint64_t>;

// The Figure 18 count of an insert at `position`, taken from the records
// and the model before it: every record holding an order >= position,
// plus the record the new congruence lands in (the last one, or a fresh
// one when the last is full), counted once.
int ExpectedRecordsUpdated(const std::vector<ScRecord>& before,
                           const OrderModel& model, std::size_t group_size,
                           std::uint64_t position) {
  auto shifts = [&](const ScRecord& record) {
    return std::any_of(record.moduli.begin(), record.moduli.end(),
                       [&](std::uint64_t m) {
                         return model.at(m) >= position;
                       });
  };
  int count = static_cast<int>(std::count_if(before.begin(), before.end(),
                                             shifts));
  const bool lands_in_last =
      !before.empty() && before.back().moduli.size() < group_size;
  if (!lands_in_last || !shifts(before.back())) ++count;
  return count;
}

// CheckInsertRoom's reservation from the model: a group's worth of
// replacement self-labels for every record with a member at order
// modulus - 1, the only orders a shift carries to their modulus.
std::size_t ExpectedRelabelBound(const std::vector<ScRecord>& records,
                                 const OrderModel& model,
                                 std::size_t group_size) {
  std::size_t at_slack_zero = 0;
  for (const ScRecord& record : records) {
    at_slack_zero += std::any_of(record.moduli.begin(), record.moduli.end(),
                                 [&](std::uint64_t m) {
                                   return model.at(m) == m - 1;
                                 });
  }
  return group_size * at_slack_zero;
}

// Every record's SC value must equal the textbook CRT solution over its
// moduli paired with the model's orders; emptied records hold zero.
void ExpectRecordsMatchSolveCrt(const ScTable& table,
                                const OrderModel& model) {
  for (std::size_t r = 0; r < table.records().size(); ++r) {
    const ScRecord& record = table.records()[r];
    if (record.moduli.empty()) {
      ASSERT_TRUE(record.sc.IsZero()) << "record " << r;
      continue;
    }
    std::vector<Congruence> system;
    for (std::uint64_t modulus : record.moduli) {
      ASSERT_TRUE(model.contains(modulus)) << "record " << r;
      system.push_back({modulus, model.at(modulus)});
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
    OrderModel model;
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
              if (it->moduli.empty()) continue;
              position = model.at(it->moduli[rng.Below(it->moduli.size())]);
              break;
            }
            break;
          }
          case Where::kRandom:
            position = 1 + rng.Below(table.max_order() + 1);
            break;
        }
        const std::vector<ScRecord> before = table.records();
        const OrderModel model_before = model;
        const std::size_t relabel_bound = table.relabel_bound();
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
                  ExpectedRecordsUpdated(before, model_before,
                                         static_cast<std::size_t>(group_size),
                                         position))
            << "op " << op << " position " << position;
        ASSERT_LE(static_cast<std::size_t>(stats.nodes_relabeled),
                  relabel_bound)
            << "op " << op;
      }
      ExpectRecordsMatchSolveCrt(table, model);
      ASSERT_TRUE(table.VerifyIntegrity()) << "op " << op;
      ASSERT_EQ(table.relabel_bound(),
                ExpectedRelabelBound(table.records(), model,
                                     static_cast<std::size_t>(group_size)))
          << "op " << op;
      ASSERT_EQ(table.size(), model.size());
      for (const auto& [s, order] : model) {
        ASSERT_EQ(table.OrderOf(s), order) << "op " << op << " self " << s;
      }
    }
    EXPECT_GT(relabels, 0);  // the front inserts must exercise relabeling
  }
}

TEST(ScTable, RecordAfterThePositionAtSlackZeroRelabelsWhereSlackOneBumps) {
  // Group of two over orders 1..6: {2, 3} before the insert position 3;
  // {5, 13} at orders 3, 4 with slack 1 (5 - 1 - 3); {11, 7} at orders 5,
  // 6 with slack 0 (7 - 1 - 6). Both later records lie wholly after the
  // position, but only the second has a member that reaches its modulus.
  ScTable table(/*group_size=*/2);
  table.Build({2, 3, 5, 13, 11, 7});
  ASSERT_EQ(table.relabel_bound(), 4u);  // {2, 3} and {11, 7}
  const BigInt slack_one_sc = table.records()[1].sc;
  std::vector<std::uint64_t> relabeled;
  ScUpdateStats stats =
      table.InsertAt(17, 3, [&](std::uint64_t old_self) -> std::uint64_t {
        relabeled.push_back(old_self);
        return 19;
      });
  EXPECT_EQ(relabeled, std::vector<std::uint64_t>{7});
  EXPECT_EQ(stats.nodes_relabeled, 1);
  EXPECT_EQ(stats.records_updated, 3);  // both shifted records + the new one
  // Bumped: same moduli, sc + 1.
  EXPECT_EQ(table.records()[1].moduli, (std::vector<std::uint64_t>{5, 13}));
  EXPECT_EQ(table.records()[1].sc, slack_one_sc + BigInt(1));
  // Relabeled and re-solved: {11 -> 6, 19 -> 7}.
  EXPECT_EQ(table.records()[2].moduli, (std::vector<std::uint64_t>{11, 19}));
  Result<BigInt> solved = SolveCrt({{11, 6}, {19, 7}});
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(table.records()[2].sc, solved.value());
  EXPECT_EQ(table.records()[3].moduli, std::vector<std::uint64_t>{17});
  // {5, 13} now sits at slack 0 (5 - 1 - 4); {11, 19} no longer does.
  EXPECT_EQ(table.relabel_bound(), 4u);
  EXPECT_TRUE(table.VerifyIntegrity());
  EXPECT_EQ(table.max_order(), 7u);
}

TEST(ScTable, EmptiedRecordsAreSkipped) {
  ScTable table(/*group_size=*/2);
  table.Build({5, 7, 11, 13, 17, 19});  // orders 1..6, two per record
  ASSERT_TRUE(table.Remove(11));
  ASSERT_TRUE(table.Remove(13));  // empties the middle record
  ASSERT_TRUE(table.records()[1].moduli.empty());
  ScUpdateStats stats = table.InsertAt(
      23, 1, [](std::uint64_t) -> std::uint64_t {
        ADD_FAILURE() << "no relabel expected";
        return 0;
      });
  // The first and last records shift, the new node opens a fourth; the
  // emptied record is neither counted nor touched.
  EXPECT_EQ(stats.records_updated, 3);
  EXPECT_TRUE(table.records()[1].moduli.empty());
  EXPECT_TRUE(table.records()[1].sc.IsZero());
  EXPECT_EQ(table.OrderOf(5), 2u);
  EXPECT_EQ(table.OrderOf(19), 7u);
  EXPECT_EQ(table.OrderOf(23), 1u);
  EXPECT_EQ(table.relabel_bound(), 0u);
  EXPECT_TRUE(table.VerifyIntegrity());
}

TEST(ScTable, BuiltAndLoadedTablesAgreeOverTheSameOps) {
  // The writer's table comes from Build, a reopened store's from
  // FromRecords over a saved catalog; the bounds of one are kept by the
  // updates, of the other derived from the stored values. Both must
  // rewrite the same records to the same values.
  Result<LabeledDocument> doc = LabeledDocument::FromXml(
      "<a><b><c/><d/></b><e/><f><g/><h/><i/></f><j/><k/><l/><m/><n/></a>");
  ASSERT_TRUE(doc.ok());
  const std::string path = std::string(::testing::TempDir()) + "/sc-" +
                           std::to_string(::getpid()) + ".plc";
  ASSERT_TRUE(doc->Save(path).ok());
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ScTable built = doc->scheme().sc_table();
  ScTable& adopted = loaded->sc_table;

  PrimeSource built_primes;
  built_primes.SkipFirst(doc->prime_cursor());
  PrimeSource adopted_primes = built_primes;
  Rng rng(19);
  for (int op = 0; op < 200; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    if (built.size() > 1 && rng.Chance(20)) {
      // A random member of the first non-empty record from a random one.
      const std::vector<ScRecord>& records = built.records();
      std::size_t r = rng.Below(records.size());
      while (records[r].moduli.empty()) r = (r + 1) % records.size();
      const std::uint64_t victim =
          records[r].moduli[rng.Below(records[r].moduli.size())];
      ASSERT_TRUE(built.Remove(victim));
      ASSERT_TRUE(adopted.Remove(victim));
    } else {
      const std::uint64_t position = 1 + rng.Below(built.max_order() + 1);
      const std::uint64_t self = built_primes.Next();
      ASSERT_EQ(adopted_primes.Next(), self);
      ScUpdateStats a = built.InsertAt(
          self, position, [&](std::uint64_t) { return built_primes.Next(); });
      ScUpdateStats b = adopted.InsertAt(
          self, position,
          [&](std::uint64_t) { return adopted_primes.Next(); });
      ASSERT_EQ(a.records_updated, b.records_updated);
      ASSERT_EQ(a.nodes_relabeled, b.nodes_relabeled);
    }
    ASSERT_EQ(built.records().size(), adopted.records().size());
    for (std::size_t r = 0; r < built.records().size(); ++r) {
      ASSERT_EQ(built.records()[r].moduli, adopted.records()[r].moduli);
      ASSERT_EQ(built.records()[r].sc, adopted.records()[r].sc);
      ASSERT_EQ(built.records()[r].max_modulus,
                adopted.records()[r].max_modulus);
    }
    ASSERT_EQ(built.max_order(), adopted.max_order());
    ASSERT_EQ(built.relabel_bound(), adopted.relabel_bound());
    ASSERT_TRUE(adopted.VerifyIntegrity());
  }
}

// --- Stored orders (catalog v2/v3, PLDELTA1) -----------------------------
//
// Those formats store an order after every modulus. The record keeps none,
// so the decoder checks each against sc mod modulus before dropping it.

std::vector<std::uint8_t> EncodeWithOrders(
    const ScRecord& record, const std::vector<std::uint64_t>& orders) {
  ByteWriter out;
  out.U32(static_cast<std::uint32_t>(record.moduli.size()));
  for (std::size_t i = 0; i < record.moduli.size(); ++i) {
    out.U64(record.moduli[i]);
    out.U64(orders[i]);
  }
  out.Big(record.sc);
  return out.Take();
}

Status DecodeWithOrders(const std::vector<std::uint8_t>& bytes,
                        ScRecord* record) {
  ByteReader in(bytes);
  return DecodeScRecord(&in, /*with_orders=*/true, record);
}

TEST(ScRecordDecode, KeepsStoredOrdersThatScLeaves) {
  const ScRecord stored = Figure10Records()[0];
  ScRecord decoded;
  ASSERT_TRUE(
      DecodeWithOrders(EncodeWithOrders(stored, {1, 2, 3, 4, 5}), &decoded)
          .ok());
  EXPECT_EQ(decoded.moduli, stored.moduli);
  EXPECT_EQ(decoded.sc, stored.sc);
}

TEST(ScRecordDecode, RejectsAStoredOrderNotBelowItsModulus) {
  // Order 7 for modulus 7 (sc 1523 leaves 4 there).
  ScRecord decoded;
  Status status = DecodeWithOrders(
      EncodeWithOrders(Figure10Records()[0], {1, 2, 3, 7, 5}), &decoded);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("order 7 for modulus 7"), std::string::npos)
      << status.ToString();
}

TEST(ScRecordDecode, RejectsAStoredOrderItsScValueDoesNotLeave) {
  // Order 4 for modulus 5 is below it, but sc 1523 leaves 3.
  ScRecord decoded;
  Status status = DecodeWithOrders(
      EncodeWithOrders(Figure10Records()[0], {1, 2, 4, 4, 5}), &decoded);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("leaves 3"), std::string::npos)
      << status.ToString();
}

TEST(ScRecordDecode, WrongStoredOrdersFailV2LoadsAndPldelta1Decodes) {
  // The two decoders that read stored orders, end to end: a v2 catalog
  // and a PLDELTA1 delta, each holding Figure 10's first record with one
  // order off by one.
  const ScRecord record = Figure10Records()[0];
  const std::vector<std::uint8_t> wrong =
      EncodeWithOrders(record, {1, 2, 3, 4, 6});
  Result<LabeledDocument> doc =
      LabeledDocument::FromXml("<a><b/><c/><d/><e/><f/></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->scheme().sc_table().records()[0].sc, record.sc);

  ByteWriter v2;
  v2.Bytes("PLCATLG2", 8);
  const std::vector<CatalogRow> rows = doc->ToCatalogRows();
  v2.U64(rows.size());
  for (const CatalogRow& row : rows) {
    EncodeCatalogRow(row, /*with_fingerprint=*/false, &v2);
  }
  v2.U32(5);  // group size
  v2.U64(1);  // one record
  v2.Bytes(wrong.data(), wrong.size());
  const std::string path = std::string(::testing::TempDir()) + "/v2-" +
                           std::to_string(::getpid()) + ".plc";
  ASSERT_TRUE(DefaultVfs().WriteWhole(path, v2.Take()).ok());
  Result<CatalogState> state = LoadCatalog(DefaultVfs(), path);
  std::remove(path.c_str());
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kCorruption)
      << state.status().ToString();
  EXPECT_NE(state.status().message().find("order 6 for modulus 11"),
            std::string::npos)
      << state.status().ToString();

  ByteWriter delta;
  delta.Bytes("PLDELTA1", 8);
  delta.U64(0);  // base epoch
  delta.U64(rows.size());
  delta.U64(0);  // final digest
  delta.U8(0);   // no fingerprints
  delta.U64(0);  // tombstones
  delta.U64(0);  // patches
  delta.U32(5);  // group size
  delta.U64(1);  // final record count
  delta.U64(1);  // one SC change
  delta.U64(0);  // at record 0
  delta.Bytes(wrong.data(), wrong.size());
  std::vector<std::uint8_t> bytes = delta.Take();
  const std::uint32_t crc = Crc32(bytes);
  ByteWriter trailer;
  trailer.U32(crc);
  const std::vector<std::uint8_t> tail = trailer.Take();
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  Result<DeltaSnapshot> decoded = DecodeDelta(bytes, "crafted delta");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
      << decoded.status().ToString();
}

}  // namespace
}  // namespace primelabel
