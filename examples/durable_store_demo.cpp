// Crash-durability driver for DurableDocumentStore, built for
// scripts/crash_loop.sh: each invocation is one step of a write/kill/
// recover cycle, with the kill a real process exit mid-stream (no
// destructors, no flush) rather than a simulated one.
//
// Usage:
//   durable_store_demo init <dir>
//       Create a store from a generated play.
//   durable_store_demo mutate <dir> <ops> [kill_after] [seed]
//       Open the store and apply <ops> random mutations. When kill_after
//       is given (0-based op index), the process _Exits with code 42
//       right after that op — whatever the group-commit buffer held is
//       lost, exactly like a SIGKILL between two commits.
//   durable_store_demo tear <dir> <bytes>
//       Chop <bytes> off the journal tail (a torn write at power loss).
//   durable_store_demo verify <dir>
//       Recover the store and check every labeling invariant; exit 0 only
//       if the recovered document is internally consistent.
//   durable_store_demo selftest
//       One full init/mutate+kill/tear/verify cycle in a temp directory
//       (the ctest smoke entry).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "corpus/durable_document_store.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"

using namespace primelabel;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: durable_store_demo init <dir>\n"
               "       durable_store_demo mutate <dir> <ops> [kill_after] "
               "[seed]\n"
               "       durable_store_demo tear <dir> <bytes>\n"
               "       durable_store_demo verify <dir>\n"
               "       durable_store_demo selftest\n");
  return 2;
}

DurableDocumentStore::Options StoreOptions() {
  DurableDocumentStore::Options options;
  // A roomy group: kills land between commits and lose buffered records,
  // which is the interesting recovery case.
  options.wal.group_commit_records = 4;
  return options;
}

int Init(const std::string& dir) {
  PlayOptions play;
  play.acts = 2;
  play.scenes_per_act = 3;
  play.min_speeches_per_scene = 2;
  play.max_speeches_per_scene = 5;
  play.seed = 11;
  Result<DurableDocumentStore> store = DurableDocumentStore::Create(
      dir, SerializeXml(GeneratePlay("crashdemo", play)), StoreOptions());
  if (!store.ok()) {
    std::fprintf(stderr, "init failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  std::printf("initialized store at %s (%zu nodes)\n", dir.c_str(),
              store->document().tree().PreorderNodes().size());
  return 0;
}

std::vector<NodeId> MutableElements(const LabeledDocument& doc) {
  std::vector<NodeId> out;
  doc.tree().Preorder([&](NodeId id, int) {
    if (id != doc.tree().root() && doc.tree().IsElement(id)) {
      out.push_back(id);
    }
  });
  return out;
}

int Mutate(const std::string& dir, int ops, int kill_after, unsigned seed) {
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Open(dir, StoreOptions());
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  std::mt19937 rng(seed);
  for (int i = 0; i < ops; ++i) {
    std::vector<NodeId> elements = MutableElements(store->document());
    NodeId anchor = elements[rng() % elements.size()];
    Status applied = Status::Ok();
    switch (rng() % 5) {
      case 0: applied = store->InsertBefore(anchor, "ib").status(); break;
      case 1: applied = store->InsertAfter(anchor, "ia").status(); break;
      case 2: applied = store->AppendChild(anchor, "ac").status(); break;
      case 3: applied = store->Wrap(anchor, "wr").status(); break;
      case 4:
        applied = elements.size() > 30
                      ? store->Delete(anchor)
                      : store->AppendChild(anchor, "ac").status();
        break;
    }
    if (!applied.ok()) {
      std::fprintf(stderr, "op %d failed: %s\n", i,
                   applied.ToString().c_str());
      return 1;
    }
    // Exercise the checkpoint path inside the crash window: every 4th op
    // compacts into a full snapshot, so kills land before, between, and
    // right after epoch swings.
    if (i % 4 == 3) {
      Status checkpointed = store->Checkpoint();
      if (!checkpointed.ok()) {
        std::fprintf(stderr, "checkpoint after op %d failed: %s\n", i,
                     checkpointed.ToString().c_str());
        return 1;
      }
    }
    if (i == kill_after) {
      // The crash: straight out of the process, skipping destructors, so
      // any records the group-commit buffer still holds are simply gone.
      std::printf("killed after op %d\n", i);
      std::fflush(stdout);
      std::_Exit(42);
    }
  }
  Status flushed = store->Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", flushed.ToString().c_str());
    return 1;
  }
  std::printf("applied %d ops cleanly\n", ops);
  return 0;
}

int Tear(const std::string& dir, std::uint64_t bytes) {
  std::uint64_t epoch = 0;
  {
    // Scope the probe so its journal handle is closed before the truncate.
    Result<DurableDocumentStore> probe =
        DurableDocumentStore::Open(dir, StoreOptions());
    if (!probe.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
    epoch = probe->epoch();
  }
  std::string journal = DurableDocumentStore::JournalPath(dir, epoch);
  std::error_code ec;
  std::uint64_t size = std::filesystem::file_size(journal, ec);
  if (ec) {
    std::fprintf(stderr, "cannot stat %s\n", journal.c_str());
    return 1;
  }
  // Never tear into the 8-byte header; a headerless file is a different
  // (also recoverable) case but not the one this mode exercises.
  std::uint64_t target = size > bytes + 8 ? size - bytes : 8;
  std::filesystem::resize_file(journal, target, ec);
  if (ec) {
    std::fprintf(stderr, "truncate failed on %s\n", journal.c_str());
    return 1;
  }
  std::printf("tore %llu bytes off %s (%llu -> %llu)\n",
              static_cast<unsigned long long>(size - target), journal.c_str(),
              static_cast<unsigned long long>(size),
              static_cast<unsigned long long>(target));
  return 0;
}

int Verify(const std::string& dir) {
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Open(dir, StoreOptions());
  if (!store.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  const LabeledDocument& doc = store->document();
  const RecoveryStats& stats = store->recovery_stats();

  // Invariant 1: self-labels are pairwise distinct primes (label soundness).
  std::set<std::uint64_t> selves;
  bool ok = true;
  doc.tree().Preorder([&](NodeId id, int) {
    if (id == doc.tree().root()) return;
    if (!selves.insert(doc.scheme().structure().self_label(id)).second) {
      std::fprintf(stderr, "duplicate self-label at node %d\n", id);
      ok = false;
    }
  });

  // Invariant 2: the SC table recovers document order — order numbers are
  // strictly increasing along the preorder walk.
  std::uint64_t previous = 0;
  bool first = true;
  doc.tree().Preorder([&](NodeId id, int) {
    std::uint64_t order = doc.scheme().OrderOf(id);
    if (!first && order <= previous) {
      std::fprintf(stderr, "order regression at node %d (%llu <= %llu)\n",
                   id, static_cast<unsigned long long>(order),
                   static_cast<unsigned long long>(previous));
      ok = false;
    }
    previous = order;
    first = false;
  });

  // Invariant 2b: the SC table is whole — every modulus indexed, every
  // value below its moduli's product, and the order bounds that inserts
  // keep equal to those sc mod m gives.
  if (!doc.scheme().sc_table().VerifyIntegrity()) {
    std::fprintf(stderr, "SC table failed its integrity check\n");
    ok = false;
  }

  // Invariant 3: divisibility answers match the tree.
  std::vector<NodeId> nodes = doc.tree().PreorderNodes();
  for (std::size_t x = 0; x < nodes.size(); x += 7) {
    for (std::size_t y = 0; y < nodes.size(); y += 5) {
      if (doc.scheme().IsAncestor(nodes[x], nodes[y]) !=
          doc.tree().IsAncestor(nodes[x], nodes[y])) {
        std::fprintf(stderr, "ancestry mismatch at (%zu, %zu)\n", x, y);
        ok = false;
      }
    }
  }

  // Invariant 4: queries run against the recovered labels.
  Result<std::vector<NodeId>> speeches = store->Query("//speech");
  if (!speeches.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 speeches.status().ToString().c_str());
    ok = false;
  }

  // Invariant 5: a pinned snapshot of the recovered state materializes
  // from disk and answers the same query identically — the read path the
  // query service serves. Snapshot ids are the point's preorder ranks.
  Result<Snapshot> snap = store->OpenSnapshot();
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n",
                 snap.status().ToString().c_str());
    ok = false;
  } else {
    Result<std::vector<NodeId>> pinned = snap->Query("//speech");
    std::vector<NodeId> expected;
    if (speeches.ok()) {
      const std::vector<NodeId> rank = store->document().tree().PreorderRanks();
      for (NodeId id : *speeches) {
        expected.push_back(rank[static_cast<std::size_t>(id)]);
      }
    }
    if (!pinned.ok() || !speeches.ok() || *pinned != expected) {
      std::fprintf(stderr, "snapshot query diverged from live query\n");
      ok = false;
    }
  }

  std::printf(
      "recovered %llu inserts + %llu deletes (%llu sc checks), "
      "%s%llu nodes, %zu speeches: %s\n",
      static_cast<unsigned long long>(stats.inserts_applied),
      static_cast<unsigned long long>(stats.deletes_applied),
      static_cast<unsigned long long>(stats.sc_checks),
      stats.tail_truncated ? "torn tail dropped, " : "",
      static_cast<unsigned long long>(nodes.size()),
      speeches.ok() ? speeches->size() : 0, ok ? "OK" : "BROKEN");
  return ok ? 0 : 1;
}

int SelfTest() {
  std::string dir =
      (std::filesystem::temp_directory_path() / "durable-demo-selftest")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (Init(dir) != 0) return 1;
  if (Mutate(dir, 6, /*kill_after=*/-1, /*seed=*/1) != 0) return 1;
  if (Tear(dir, 13) != 0) return 1;
  if (Verify(dir) != 0) return 1;
  if (Mutate(dir, 4, /*kill_after=*/-1, /*seed=*/2) != 0) return 1;
  if (Verify(dir) != 0) return 1;
  std::filesystem::remove_all(dir, ec);
  std::printf("selftest OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string mode = argv[1];
  if (mode == "selftest") return SelfTest();
  if (argc < 3) return Usage();
  std::string dir = argv[2];
  if (mode == "init") return Init(dir);
  if (mode == "mutate") {
    if (argc < 4) return Usage();
    int ops = std::atoi(argv[3]);
    int kill_after = argc > 4 ? std::atoi(argv[4]) : -1;
    unsigned seed = argc > 5 ? static_cast<unsigned>(std::atoi(argv[5]))
                             : std::random_device{}();
    return Mutate(dir, ops, kill_after, seed);
  }
  if (mode == "tear") {
    if (argc < 4) return Usage();
    return Tear(dir, static_cast<std::uint64_t>(std::atoll(argv[3])));
  }
  if (mode == "verify") return Verify(dir);
  return Usage();
}
