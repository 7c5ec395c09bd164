// Concurrency suite for the epoch reader/writer protocol: one writer
// mutates and checkpoints a DurableDocumentStore while reader threads pin
// epochs and materialize frozen views. Run under ThreadSanitizer by
// scripts/check.sh (the tsan leg matches 'Epoch|Concurrent').
//
// The protocol's promise: a pin captures an (epoch, committed-journal-
// bytes) point atomically, OpenSnapshot materializes exactly that point,
// and epoch retirement never yanks files out from under a live pin.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/durable_document_store.h"
#include "durability/epoch.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"

namespace primelabel {
namespace {

namespace fs = std::filesystem;

/// Unique per test process: ctest runs tests from one binary
/// concurrently, and a shared literal name races SetUp/TearDown.
std::string TempDirPath(const char* name) {
  return std::string(::testing::TempDir()) + "/p" +
         std::to_string(::getpid()) + "-" + name;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string StateDigest(const LabeledDocument& doc) {
  std::ostringstream out;
  doc.tree().Preorder([&](NodeId id, int depth) {
    out << depth << '|' << doc.tree().name(id) << '|'
        << doc.scheme().structure().self_label(id) << '|'
        << doc.scheme().structure().label(id).ToHexString() << '|'
        << doc.scheme().OrderOf(id) << '\n';
  });
  return out.str();
}

std::string SmallPlayXml() {
  PlayOptions options;
  options.acts = 2;
  options.scenes_per_act = 2;
  options.min_speeches_per_scene = 2;
  options.max_speeches_per_scene = 3;
  options.seed = 7;
  return SerializeXml(GeneratePlay("concurrent", options));
}

std::vector<NodeId> NonRootElements(const XmlTree& tree) {
  std::vector<NodeId> out;
  tree.Preorder([&](NodeId id, int) {
    if (id != tree.root() && tree.IsElement(id)) out.push_back(id);
  });
  return out;
}

TEST(EpochConcurrency, PinnedReadersSeeCommittedStatesBitIdentically) {
  std::string dir = TempDirPath("epoch-concurrent-read");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // The writer publishes, after every committed op, the digest of the
  // state at (epoch, durable journal bytes). A reader that pins the same
  // point must materialize a bit-identical document.
  std::mutex mu;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> committed;
  {
    std::lock_guard<std::mutex> lock(mu);
    committed[{store->epoch(), store->durable_journal_bytes()}] =
        StateDigest(store->document());
  }

  std::atomic<bool> done{false};
  std::atomic<int> hits{0};

  std::thread writer([&] {
    std::mt19937 rng(99);
    for (int i = 0; i < 96; ++i) {
      std::vector<NodeId> elements =
          NonRootElements(store->document().tree());
      NodeId anchor = elements[rng() % elements.size()];
      Status applied = Status::Ok();
      switch (rng() % 3) {
        case 0: applied = store->InsertAfter(anchor, "ia").status(); break;
        case 1: applied = store->AppendChild(anchor, "ac").status(); break;
        case 2: applied = store->Wrap(anchor, "wr").status(); break;
      }
      ASSERT_TRUE(applied.ok()) << applied.ToString();
      if (i % 16 == 15) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
      std::lock_guard<std::mutex> lock(mu);
      committed[{store->epoch(), store->durable_journal_bytes()}] =
          StateDigest(store->document());
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      // Keep reading through the storm, plus at least two spins after the
      // writer quiesces: a pin taken then captures the writer's final
      // published point, so every reader is guaranteed verifiable hits
      // even on a single-core box where storm-time pins tend to land
      // mid-mutation (between the frames of one op, a never-published
      // point).
      int post_done = 0;
      while (post_done < 2) {
        if (done.load()) ++post_done;
        Result<Snapshot> snap = store->OpenSnapshot();
        ASSERT_TRUE(snap.ok())
            << "reader " << r << ": " << snap.status().ToString();
        const std::pair<std::uint64_t, std::uint64_t> key{
            snap->epoch(), snap->journal_bytes()};
        const std::string digest = StateDigest(snap->document());
        std::lock_guard<std::mutex> lock(mu);
        auto it = committed.find(key);
        // A pin can land between a commit and the writer publishing its
        // digest; such misses are fine. Matching points must be
        // bit-identical.
        if (it != committed.end()) {
          EXPECT_EQ(digest, it->second)
              << "pinned view diverged at epoch " << key.first << " +"
              << key.second << "B";
          hits.fetch_add(1);
        }
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  // Every reader's post-quiescence pins must match the final published
  // point; never matching would mean the pin snapshot itself is broken.
  EXPECT_GE(hits.load(), 4);

  // The store is still healthy and durable after the storm.
  ASSERT_TRUE(store->Flush().ok());
  const std::string live = StateDigest(store->document());
  Result<DurableDocumentStore> reopened = DurableDocumentStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), live);
  RemoveTree(dir);
}

TEST(EpochConcurrency, PinChurnDuringCheckpointsNeverBreaksRetirement) {
  std::string dir = TempDirPath("epoch-concurrent-churn");
  RemoveTree(dir);
  DurableDocumentStore::Options options;
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::mt19937 rng(7);
    for (int i = 0; i < 48; ++i) {
      std::vector<NodeId> elements =
          NonRootElements(store->document().tree());
      ASSERT_TRUE(
          store->AppendChild(elements[rng() % elements.size()], "n").ok());
      // Checkpoint often: every swing retires whatever epochs no pin holds.
      if (i % 6 == 5) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
    }
    done.store(true);
  });

  std::vector<std::thread> pinners;
  for (int p = 0; p < 4; ++p) {
    pinners.emplace_back([&] {
      int spins = 0;
      while (!done.load() || spins < 4) {
        ++spins;
        // Hold an overlapping raw pin and a snapshot, then drop them all.
        EpochPin b = store->PinEpoch();
        ASSERT_TRUE(b.valid());
        Result<Snapshot> snap = store->OpenSnapshot();
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        ASSERT_TRUE(snap->document().tree().node_count() > 0);
        // snap's pin and b both released by destructors at scope exit.
      }
    });
  }

  writer.join();
  for (std::thread& pinner : pinners) pinner.join();

  // All pins are gone: one more swing retires every stale epoch, and the
  // store recovers bit-identically.
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->Flush().ok());
  const std::string live = StateDigest(store->document());
  Result<DurableDocumentStore> reopened =
      DurableDocumentStore::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), live);
  RemoveTree(dir);
}

TEST(EpochConcurrency, UnpinBetweenRegisterAndSetCurrentKeepsNewEpochFiles) {
  // Checkpoint registers epoch n+1 and only then publishes it; a reader's
  // Unpin landing between the two calls runs retirement against current
  // epoch n. The deterministic replay of that interleaving: n+1's files
  // must survive it, and the publish then retires epoch n alone.
  std::string dir = TempDirPath("epoch-register-unpin");
  RemoveTree(dir);
  fs::create_directories(dir);
  auto touch = [](const std::string& path) {
    std::ofstream(path) << "x";
  };
  auto registry = std::make_shared<EpochRegistry>(&DefaultVfs(), dir);
  touch(EpochSnapshotPath(dir, 1));
  touch(EpochJournalPath(dir, 1));
  registry->Register(1);
  registry->SetCurrent(1);

  touch(EpochSnapshotPath(dir, 2));
  touch(EpochJournalPath(dir, 2));
  registry->Register(2);
  EpochPin pin = registry->Pin(registry);
  EXPECT_EQ(pin.epoch(), 1u);
  pin.Release();
  EXPECT_TRUE(registry->FilesPresent(2));
  EXPECT_TRUE(fs::exists(EpochJournalPath(dir, 2)));
  EXPECT_TRUE(registry->FilesPresent(1));

  registry->SetCurrent(2);
  EXPECT_TRUE(registry->FilesPresent(2));
  EXPECT_TRUE(fs::exists(EpochJournalPath(dir, 2)));
  EXPECT_FALSE(fs::exists(EpochSnapshotPath(dir, 1)));
  EXPECT_FALSE(fs::exists(EpochJournalPath(dir, 1)));
  RemoveTree(dir);
}

}  // namespace
}  // namespace primelabel
