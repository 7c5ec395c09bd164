#include "corpus/durable_document_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "delta_encoder.h"
#include "durability/delta.h"
#include "durability/frame.h"
#include "durability/recovery.h"
#include "durability/vfs.h"
#include "durability/wal.h"
#include "util/binio.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"

#ifndef PRIMELABEL_TEST_DATA_DIR
#define PRIMELABEL_TEST_DATA_DIR "tests/data"
#endif

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

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Copies the committed limb32_store fixture into a fresh `dir`: a v3
/// epoch-0 snapshot, a PLDELTA1 delta-1 over it (the chain an older build
/// left) and a journal tail on epoch 1.
void CopyLimb32Store(const std::string& dir) {
  RemoveTree(dir);
  fs::create_directories(dir);
  for (const auto& entry : fs::directory_iterator(
           std::string(PRIMELABEL_TEST_DATA_DIR) + "/limb32_store")) {
    fs::copy_file(entry.path(), fs::path(dir) / entry.path().filename());
  }
}

/// Full observable state of a document: structure, tags, every label and
/// self-label, and every order number. Two documents with equal digests
/// answer every oracle query identically.
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
  return SerializeXml(GeneratePlay("crash", options));
}

std::vector<NodeId> NonRootElements(const XmlTree& tree) {
  std::vector<NodeId> out;
  tree.Preorder([&](NodeId id, int) {
    if (id != tree.root() && tree.IsElement(id)) out.push_back(id);
  });
  return out;
}

// --- Frame codec --------------------------------------------------------

WalRecord SampleInsert() {
  WalRecord r;
  r.type = WalRecord::Type::kInsert;
  r.op = WalRecord::Op::kInsertBefore;
  r.anchor_self = 101;
  r.prime_cursor = 42;
  r.new_self = 103;
  r.tag = "scene";
  r.order = InsertOrder::kDocumentOrder;
  return r;
}

TEST(DurabilityFrame, RecordRoundTripsAllTypes) {
  WalRecord del;
  del.type = WalRecord::Type::kDelete;
  del.anchor_self = 977;

  WalRecord sc;
  sc.type = WalRecord::Type::kScRewrite;
  sc.anchor_self = 103;
  sc.sc_records_updated = 3;
  sc.sc_nodes_relabeled = 2;
  sc.sc_max_order = 900;

  for (const WalRecord& record : {SampleInsert(), del, sc}) {
    std::vector<std::uint8_t> payload = EncodeRecord(record);
    Result<WalRecord> decoded = DecodeRecord(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, record);
  }
}

TEST(DurabilityFrame, CrcKnownAnswer) {
  // CRC-32 ("123456789") == 0xCBF43926 — the classic check value for the
  // IEEE reflected polynomial.
  const char* digits = "123456789";
  std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(digits), 9);
  EXPECT_EQ(Crc32(bytes), 0xCBF43926u);
}

TEST(DurabilityFrame, ScanStopsAtFlippedByte) {
  std::vector<std::uint8_t> buffer;
  AppendFrame(EncodeRecord(SampleInsert()), &buffer);
  const std::uint64_t first_frame = buffer.size();
  AppendFrame(EncodeRecord(SampleInsert()), &buffer);
  // Flip a payload byte inside the second frame.
  buffer[first_frame + 10] ^= 0x40;

  FrameScan scan = ScanFrames(buffer);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, first_frame);
  EXPECT_TRUE(scan.tail_truncated);
  EXPECT_EQ(scan.bytes_dropped, buffer.size() - first_frame);
}

TEST(DurabilityFrame, ScanStopsAtTornTail) {
  std::vector<std::uint8_t> buffer;
  AppendFrame(EncodeRecord(SampleInsert()), &buffer);
  const std::uint64_t first_frame = buffer.size();
  AppendFrame(EncodeRecord(SampleInsert()), &buffer);
  for (std::size_t cut = first_frame; cut < buffer.size(); ++cut) {
    FrameScan scan = ScanFrames(
        std::span<const std::uint8_t>(buffer.data(), cut));
    EXPECT_EQ(scan.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, first_frame) << "cut at " << cut;
    EXPECT_EQ(scan.tail_truncated, cut != first_frame) << "cut at " << cut;
  }
}

TEST(DurabilityFrame, ScanRejectsImplausibleLength) {
  std::vector<std::uint8_t> buffer(12, 0);
  buffer[3] = 0x7F;  // payload_len with a huge high byte
  FrameScan scan = ScanFrames(buffer);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_TRUE(scan.tail_truncated);
}

// --- WAL ----------------------------------------------------------------

TEST(DurabilityWal, GroupCommitBuffersUntilFull) {
  std::string path = TempDirPath("group.wal");
  std::remove(path.c_str());
  WalOptions options;
  options.group_commit_records = 4;
  {
    Result<WriteAheadLog> wal = WriteAheadLog::Open(DefaultVfs(), path, options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal->Append(SampleInsert()).ok());
    }
    EXPECT_EQ(wal->pending_records(), 3);
    EXPECT_EQ(wal->committed_frames(), 0u);
    // Nothing on disk yet: the group is still open.
    Result<WalReadResult> read = ReadWal(DefaultVfs(), path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read->records.empty());

    ASSERT_TRUE(wal->Append(SampleInsert()).ok());  // fourth → auto-commit
    EXPECT_EQ(wal->pending_records(), 0);
    EXPECT_EQ(wal->committed_frames(), 4u);
    read = ReadWal(DefaultVfs(), path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->records.size(), 4u);
  }
  std::remove(path.c_str());
}

TEST(DurabilityWal, DestructorCommitsPartialGroup) {
  std::string path = TempDirPath("dtor.wal");
  std::remove(path.c_str());
  WalOptions options;
  options.group_commit_records = 100;
  {
    Result<WriteAheadLog> wal = WriteAheadLog::Open(DefaultVfs(), path, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(SampleInsert()).ok());
    ASSERT_TRUE(wal->Append(SampleInsert()).ok());
  }  // clean shutdown: the destructor commits the open group
  Result<WalReadResult> read = ReadWal(DefaultVfs(), path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 2u);
  EXPECT_FALSE(read->tail_truncated);
  std::remove(path.c_str());
}

TEST(DurabilityWal, ReopenResumesAfterIntactPrefix) {
  std::string path = TempDirPath("resume.wal");
  std::remove(path.c_str());
  {
    Result<WriteAheadLog> wal = WriteAheadLog::Open(DefaultVfs(), path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(SampleInsert()).ok());
    ASSERT_TRUE(wal->Append(SampleInsert()).ok());
  }
  // Simulate a torn tail: append garbage the next writer must drop.
  std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  const std::uint64_t intact = bytes.size();
  bytes.insert(bytes.end(), {0x11, 0x22, 0x33});
  WriteFileBytes(path, bytes);

  Result<WalReadResult> read = ReadWal(DefaultVfs(), path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->valid_bytes, intact);
  EXPECT_TRUE(read->tail_truncated);

  {
    Result<WriteAheadLog> wal =
        WriteAheadLog::Open(DefaultVfs(), path, WalOptions{}, read->valid_bytes);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(SampleInsert()).ok());
  }
  read = ReadWal(DefaultVfs(), path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 3u);
  EXPECT_FALSE(read->tail_truncated);
  std::remove(path.c_str());
}

TEST(DurabilityWal, MissingFileIsNotFound) {
  Result<WalReadResult> read = ReadWal(DefaultVfs(), TempDirPath("absent.wal"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

// --- Store lifecycle ----------------------------------------------------

TEST(DurabilityStore, CreateOpenRoundTrip) {
  std::string dir = TempDirPath("store-roundtrip");
  RemoveTree(dir);
  std::string live_digest;
  {
    Result<DurableDocumentStore> store =
        DurableDocumentStore::Create(dir, SmallPlayXml());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(DurableDocumentStore::Exists(dir));
    EXPECT_EQ(store->epoch(), 0u);

    std::vector<NodeId> scenes = store->Query("//scene").value();
    ASSERT_GE(scenes.size(), 2u);
    ASSERT_TRUE(store->AppendChild(scenes[0], "speech").ok());
    ASSERT_TRUE(store->InsertBefore(scenes[1], "scene").ok());
    ASSERT_TRUE(store->Flush().ok());
    live_digest = StateDigest(store->document());
  }
  {
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store->recovery_stats().inserts_applied, 2u);
    EXPECT_EQ(store->recovery_stats().sc_checks, 2u);
    EXPECT_FALSE(store->recovery_stats().tail_truncated);
    EXPECT_EQ(StateDigest(store->document()), live_digest);
  }
  RemoveTree(dir);
}

TEST(DurabilityStore, CreateRefusesExistingStore) {
  std::string dir = TempDirPath("store-exists");
  RemoveTree(dir);
  ASSERT_TRUE(DurableDocumentStore::Create(dir, SmallPlayXml()).ok());
  Result<DurableDocumentStore> second =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  RemoveTree(dir);
}

TEST(DurabilityStore, CheckpointCompactsJournalAndDropsOldEpoch) {
  std::string dir = TempDirPath("store-checkpoint");
  RemoveTree(dir);
  std::string live_digest;
  {
    Result<DurableDocumentStore> store =
        DurableDocumentStore::Create(dir, SmallPlayXml());
    ASSERT_TRUE(store.ok());
    std::vector<NodeId> speeches = store->Query("//speech").value();
    ASSERT_GE(speeches.size(), 3u);
    ASSERT_TRUE(store->InsertAfter(speeches[0], "speech").ok());
    ASSERT_TRUE(store->Wrap(speeches[2], "aside").ok());
    ASSERT_TRUE(store->Delete(speeches[1]).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(store->epoch(), 1u);
    live_digest = StateDigest(store->document());

    EXPECT_FALSE(fs::exists(DurableDocumentStore::SnapshotPath(dir, 0)));
    EXPECT_FALSE(fs::exists(DurableDocumentStore::JournalPath(dir, 0)));
    EXPECT_TRUE(fs::exists(DurableDocumentStore::SnapshotPath(dir, 1)));
    EXPECT_TRUE(fs::exists(DurableDocumentStore::JournalPath(dir, 1)));
  }
  {
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store->epoch(), 1u);
    // The checkpoint folded everything into the snapshot: nothing replays.
    EXPECT_EQ(store->recovery_stats().inserts_applied, 0u);
    EXPECT_EQ(store->recovery_stats().deletes_applied, 0u);
    EXPECT_EQ(StateDigest(store->document()), live_digest);
  }
  RemoveTree(dir);
}

TEST(DurabilityStore, DeleteOfRootIsRejected) {
  std::string dir = TempDirPath("store-delroot");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok());
  Status deleted = store->Delete(store->document().tree().root());
  EXPECT_FALSE(deleted.ok());
  EXPECT_EQ(deleted.code(), StatusCode::kInvalidArgument);
  RemoveTree(dir);
}

// --- Deterministic fault injection --------------------------------------

/// Runs a mixed mutation workload against a freshly created store,
/// capturing the state digest after every operation. digests[0] is the
/// post-Create state; digests[i] the state after the i-th op.
struct WorkloadRun {
  std::string dir;
  std::vector<std::string> digests;
};

WorkloadRun RunWorkload(const char* name, int ops, unsigned seed) {
  WorkloadRun run;
  run.dir = TempDirPath(name);
  RemoveTree(run.dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(run.dir, SmallPlayXml());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  run.digests.push_back(StateDigest(store->document()));

  std::mt19937 rng(seed);
  for (int i = 0; i < ops; ++i) {
    std::vector<NodeId> elements = NonRootElements(store->document().tree());
    NodeId anchor = elements[rng() % elements.size()];
    switch (rng() % 5) {
      case 0:
        EXPECT_TRUE(store->InsertBefore(anchor, "ib").ok());
        break;
      case 1:
        EXPECT_TRUE(store->InsertAfter(anchor, "ia").ok());
        break;
      case 2:
        EXPECT_TRUE(store->AppendChild(anchor, "ac").ok());
        break;
      case 3:
        EXPECT_TRUE(store->Wrap(anchor, "wr").ok());
        break;
      case 4:
        // Keep the tree from shrinking away: delete only while roomy.
        if (elements.size() > 20) {
          EXPECT_TRUE(store->Delete(anchor).ok());
        } else {
          EXPECT_TRUE(store->AppendChild(anchor, "ac").ok());
        }
        break;
    }
    run.digests.push_back(StateDigest(store->document()));
  }
  EXPECT_TRUE(store->Flush().ok());
  return run;
}

/// Frame start offsets in a journal file (after the 8-byte magic), plus
/// the end-of-file offset.
std::vector<std::uint64_t> FrameBoundaries(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::uint64_t> boundaries;
  std::uint64_t off = 8;
  while (off + 8 <= bytes.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + off, 4);
    boundaries.push_back(off);
    off += 8 + len;
    if (off > bytes.size()) break;
  }
  boundaries.push_back(std::min<std::uint64_t>(off, bytes.size()));
  return boundaries;
}

/// Copies the store, truncates the journal copy to `kill` bytes, recovers,
/// and checks the recovered state digest equals the live run's digest at
/// the number of operations the intact prefix holds.
void CheckKillPoint(const WorkloadRun& run,
                    std::span<const std::uint8_t> journal,
                    std::uint64_t kill, const std::string& scratch_dir) {
  RemoveTree(scratch_dir);
  fs::create_directories(scratch_dir);
  fs::copy(DurableDocumentStore::ManifestPath(run.dir),
           DurableDocumentStore::ManifestPath(scratch_dir));
  fs::copy(DurableDocumentStore::SnapshotPath(run.dir, 0),
           DurableDocumentStore::SnapshotPath(scratch_dir, 0));
  WriteFileBytes(DurableDocumentStore::JournalPath(scratch_dir, 0),
                 journal.subspan(0, kill));

  Result<DurableDocumentStore> store = DurableDocumentStore::Open(scratch_dir);
  ASSERT_TRUE(store.ok()) << "kill at " << kill << ": "
                          << store.status().ToString();
  const RecoveryStats& stats = store->recovery_stats();
  std::uint64_t ops = stats.inserts_applied + stats.deletes_applied;
  ASSERT_LT(ops, run.digests.size()) << "kill at " << kill;
  EXPECT_EQ(StateDigest(store->document()), run.digests[ops])
      << "kill at " << kill << " recovered " << ops << " ops";
  RemoveTree(scratch_dir);
}

TEST(DurabilityFaultInjection, EveryFrameBoundaryAndMidFrameKill) {
  WorkloadRun run = RunWorkload("fault-base", /*ops=*/16, /*seed=*/1234);
  std::vector<std::uint8_t> journal =
      ReadFileBytes(DurableDocumentStore::JournalPath(run.dir, 0));
  std::vector<std::uint64_t> boundaries = FrameBoundaries(journal);
  ASSERT_GE(boundaries.size(), 2u);
  // The full file recovers every op.
  ASSERT_EQ(boundaries.back(), journal.size());

  std::set<std::uint64_t> kills;
  kills.insert(0);  // empty journal: snapshot-only
  kills.insert(4);  // torn magic
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
    std::uint64_t start = boundaries[i];
    std::uint64_t end = boundaries[i + 1];
    kills.insert(start);            // clean cut at the boundary
    kills.insert(start + 1);        // torn length field
    kills.insert(start + 8);        // header intact, payload missing
    kills.insert((start + end) / 2);  // mid-payload
  }
  kills.insert(journal.size());  // no kill at all

  std::string scratch = TempDirPath("fault-scratch");
  for (std::uint64_t kill : kills) {
    if (kill > journal.size()) continue;
    CheckKillPoint(run, journal, kill, scratch);
  }

  // Sanity: the uncut journal replays the whole workload.
  Result<DurableDocumentStore> full = DurableDocumentStore::Open(run.dir);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(StateDigest(full->document()), run.digests.back());
  RemoveTree(run.dir);
}

TEST(DurabilityFaultInjection, FlippedByteTruncatesAtCorruptFrame) {
  WorkloadRun run = RunWorkload("fault-flip", /*ops=*/10, /*seed=*/99);
  std::vector<std::uint8_t> journal =
      ReadFileBytes(DurableDocumentStore::JournalPath(run.dir, 0));
  std::vector<std::uint64_t> boundaries = FrameBoundaries(journal);
  ASSERT_GE(boundaries.size(), 6u);

  // Corrupt one payload byte in the middle of the 5th frame: recovery must
  // keep everything before it and drop everything from it on.
  std::vector<std::uint8_t> corrupted = journal;
  std::uint64_t victim = boundaries[4] + 9;
  corrupted[victim] ^= 0x01;
  WriteFileBytes(DurableDocumentStore::JournalPath(run.dir, 0), corrupted);

  Result<DurableDocumentStore> store = DurableDocumentStore::Open(run.dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store->recovery_stats().tail_truncated);
  EXPECT_EQ(store->recovery_stats().journal_valid_bytes, boundaries[4]);
  std::uint64_t ops = store->recovery_stats().inserts_applied +
                      store->recovery_stats().deletes_applied;
  EXPECT_EQ(StateDigest(store->document()), run.digests[ops]);
  RemoveTree(run.dir);
}

TEST(DurabilityFaultInjection, RecoveredStoreAcceptsFurtherMutations) {
  WorkloadRun run = RunWorkload("fault-continue", /*ops=*/8, /*seed=*/5);
  std::vector<std::uint8_t> journal =
      ReadFileBytes(DurableDocumentStore::JournalPath(run.dir, 0));
  std::vector<std::uint64_t> boundaries = FrameBoundaries(journal);
  // Kill mid-journal, recover, keep writing, reopen: the continuation must
  // survive its own restart.
  std::uint64_t kill = boundaries[boundaries.size() / 2] + 3;
  WriteFileBytes(DurableDocumentStore::JournalPath(run.dir, 0),
                 std::span<const std::uint8_t>(journal).subspan(0, kill));

  std::string digest;
  {
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(run.dir);
    ASSERT_TRUE(store.ok());
    std::vector<NodeId> scenes = store->Query("//scene").value();
    ASSERT_FALSE(scenes.empty());
    ASSERT_TRUE(store->AppendChild(scenes.back(), "epilogue").ok());
    ASSERT_TRUE(store->Flush().ok());
    digest = StateDigest(store->document());
  }
  Result<DurableDocumentStore> reopened = DurableDocumentStore::Open(run.dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), digest);
  EXPECT_EQ(reopened->Query("//epilogue").value().size(), 1u);
  RemoveTree(run.dir);
}

TEST(DurabilityRecovery, ChecksummedButWrongJournalFailsLoudly) {
  // Rewrite the journal with one insert frame whose content is wrong but
  // whose checksum verifies — the "valid journal, wrong content" case —
  // and reopen: each must fail typed, not silently produce a different
  // document, and fast. A new_self that replay will not derive diverges.
  // A prime cursor of 2^40 lies far past the prime stream's bound: replay
  // once sieved towards it until killed; it must fail before pinning it.
  // So must the first cursor without room for the insert (one prime plus
  // a group's worth per SC record at slack 0), the one the durable writer
  // would refuse, without growing the prime table towards the bound.
  // (ctest runs this test under a tight TIMEOUT.)
  struct Craft {
    std::string what;
    std::function<void(WalRecord*)> tamper;
    StatusCode code;
    std::string named;
  };
  const std::size_t no_room =
      PrimeSource::kLength - LabeledDocument::FromXml(SmallPlayXml())
                                 ->scheme()
                                 .sc_table()
                                 .relabel_bound();
  const std::vector<Craft> crafts = {
      {"new_self + 2", [](WalRecord* r) { r->new_self += 2; },
       StatusCode::kInternal, "diverged"},
      {"prime_cursor 2^40",
       [](WalRecord* r) { r->prime_cursor = std::uint64_t{1} << 40; },
       StatusCode::kCorruption, "prime cursor 1099511627776"},
      {"prime_cursor without insert room",
       [no_room](WalRecord* r) { r->prime_cursor = no_room; },
       StatusCode::kCorruption, "prime cursor " + std::to_string(no_room)},
  };
  for (const Craft& craft : crafts) {
    SCOPED_TRACE(craft.what);
    std::string dir = TempDirPath("diverge");
    RemoveTree(dir);
    {
      Result<DurableDocumentStore> store =
          DurableDocumentStore::Create(dir, SmallPlayXml());
      ASSERT_TRUE(store.ok());
      std::vector<NodeId> scenes = store->Query("//scene").value();
      ASSERT_TRUE(store->AppendChild(scenes[0], "speech").ok());
      ASSERT_TRUE(store->Flush().ok());
    }
    std::string wal_path = DurableDocumentStore::JournalPath(dir, 0);
    Result<WalReadResult> read = ReadWal(DefaultVfs(), wal_path);
    ASSERT_TRUE(read.ok());
    ASSERT_FALSE(read->records.empty());
    WalRecord tampered = read->records[0];
    ASSERT_EQ(tampered.type, WalRecord::Type::kInsert);
    craft.tamper(&tampered);
    std::vector<std::uint8_t> bytes(
        {'P', 'L', 'W', 'A', 'L', 'O', 'G', '1'});
    AppendFrame(EncodeRecord(tampered), &bytes);
    WriteFileBytes(wal_path, bytes);

    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), craft.code) << store.status().ToString();
    EXPECT_NE(store.status().ToString().find(craft.named), std::string::npos)
        << store.status().ToString();
    RemoveTree(dir);
  }
}

// --- SC-table ordered-insert equivalence under replay -------------------

/// Requires the store's own rebuild of its committed state — a pinned
/// snapshot, materialized by replaying the journal on the epoch's
/// snapshot/delta chain and served as an image of the replayed rows — to
/// be bit-identical to the live document: labels, self-labels, and the
/// full order relation (the SC table's answers).
void ExpectReplayEquivalence(DurableDocumentStore& store) {
  ASSERT_TRUE(store.Flush().ok());
  Result<Snapshot> snapshot = store.OpenSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_GT(snapshot->journal_bytes(), kWalHeaderBytes)
      << "no journal frames to replay";
  const LabeledDocument* recovered = &snapshot->document();
  EXPECT_EQ(StateDigest(*recovered), StateDigest(store.document()));

  // Order numbers recovered via the SC table sort the tree into document
  // order exactly like the live run's.
  std::vector<std::uint64_t> live_orders, replay_orders;
  store.document().tree().Preorder([&](NodeId id, int) {
    live_orders.push_back(store.document().scheme().OrderOf(id));
  });
  recovered->tree().Preorder([&](NodeId id, int) {
    replay_orders.push_back(recovered->scheme().OrderOf(id));
  });
  EXPECT_EQ(live_orders, replay_orders);
}

TEST(DurabilityScEquivalence, RandomLeafInsertWorkload) {
  // Fig. 16/17 shape: a stream of leaf insertions at random positions,
  // each triggering an SC-table rewrite of the sibling group.
  std::string dir = TempDirPath("sc-leaf");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok());
  std::mt19937 rng(2718);
  for (int i = 0; i < 24; ++i) {
    std::vector<NodeId> speeches = store->Query("//speech").value();
    ASSERT_FALSE(speeches.empty());
    NodeId anchor = speeches[rng() % speeches.size()];
    if (rng() % 2 == 0) {
      ASSERT_TRUE(store->InsertBefore(anchor, "speech").ok());
    } else {
      ASSERT_TRUE(store->InsertAfter(anchor, "speech").ok());
    }
  }
  ExpectReplayEquivalence(*store);
  RemoveTree(dir);
}

TEST(DurabilityScEquivalence, SkewedHotSpotInsertWorkload) {
  // Fig. 18 shape: every insertion lands before the same hot sibling, the
  // worst case for order maintenance — maximal SC rewrites and frequent
  // replacement self-labels.
  std::string dir = TempDirPath("sc-hot");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok());
  std::vector<NodeId> scenes = store->Query("//scene").value();
  ASSERT_FALSE(scenes.empty());
  NodeId hot = scenes[0];
  for (int i = 0; i < 20; ++i) {
    Result<NodeId> fresh = store->InsertBefore(hot, "prologue");
    ASSERT_TRUE(fresh.ok());
    hot = *fresh;  // always insert before the newest node: fully skewed
  }
  ExpectReplayEquivalence(*store);
  RemoveTree(dir);
}

TEST(DurabilityScEquivalence, NonLeafWrapAndDeleteWorkload) {
  // Non-leaf mutations: Wrap relabels whole subtrees, Delete frees order
  // slots — both must replay to the same SC state.
  std::string dir = TempDirPath("sc-wrap");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok());
  std::mt19937 rng(31415);
  for (int i = 0; i < 16; ++i) {
    std::vector<NodeId> elements =
        NonRootElements(store->document().tree());
    NodeId anchor = elements[rng() % elements.size()];
    switch (rng() % 3) {
      case 0:
        ASSERT_TRUE(store->Wrap(anchor, "wrap").ok());
        break;
      case 1:
        ASSERT_TRUE(store->AppendChild(anchor, "child").ok());
        break;
      case 2:
        if (elements.size() > 25) {
          ASSERT_TRUE(store->Delete(anchor).ok());
        } else {
          ASSERT_TRUE(store->InsertAfter(anchor, "sibling").ok());
        }
        break;
    }
  }
  ExpectReplayEquivalence(*store);
  RemoveTree(dir);
}

TEST(DurabilityScEquivalence,
     TailDeletesBeforeACheckpointReplayInTheNextEpoch) {
  // Deleting the document's last nodes leaves the writer's largest order
  // number behind (Remove never lowers it), while the next epoch's replay
  // starts from its snapshot, which holds only the orders still in use.
  // The writer keeps its table across the checkpoint, so it must start the
  // new epoch from the same largest order, or the first insert's
  // kScRewrite cross-check diverges and the store cannot be reopened.
  std::string dir = TempDirPath("sc-tail-delete");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, "<a><b/><c/><d/></a>");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto only = [&](const char* xpath) {
    std::vector<NodeId> hits = store->Query(xpath).value();
    EXPECT_EQ(hits.size(), 1u) << xpath;
    return hits.empty() ? kInvalidNodeId : hits[0];
  };
  ASSERT_TRUE(store->Delete(only("/a/d")).ok());
  ASSERT_TRUE(store->Delete(only("/a/c")).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->InsertBefore(only("/a/b"), "x").ok());
  ExpectReplayEquivalence(*store);

  // The view answers as the tree does: x now precedes b.
  auto expect_x_then_b = [](const LabeledDocument& doc, const char* point) {
    Result<std::vector<NodeId>> children = doc.Query("/a/*");
    ASSERT_TRUE(children.ok()) << point << ": "
                               << children.status().ToString();
    ASSERT_EQ(children->size(), 2u) << point;
    EXPECT_EQ(doc.tree().name((*children)[0]), "x") << point;
    EXPECT_EQ(doc.tree().name((*children)[1]), "b") << point;
  };
  Result<Snapshot> snapshot = store->OpenSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  expect_x_then_b(snapshot->document(), "snapshot");

  Result<DurableDocumentStore> reopened = DurableDocumentStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()),
            StateDigest(store->document()));
  expect_x_then_b(reopened->document(), "reopened store");
  RemoveTree(dir);
}

// --- Vfs seam ------------------------------------------------------------

TEST(DurabilityVfs, PosixRoundTripAndDirectoryOps) {
  Vfs& vfs = DefaultVfs();
  std::string dir = TempDirPath("vfs-posix");
  RemoveTree(dir);
  ASSERT_TRUE(vfs.CreateDirs(dir).ok());

  const std::string path = dir + "/blob";
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(vfs.WriteWhole(path, payload).ok());
  EXPECT_TRUE(vfs.Exists(path));
  EXPECT_EQ(vfs.FileSize(path).value(), payload.size());
  EXPECT_EQ(vfs.ReadAll(path).value(), payload);
  // Bounded read returns a prefix.
  EXPECT_EQ(vfs.ReadAll(path, 3).value(),
            (std::vector<std::uint8_t>{1, 2, 3}));

  ASSERT_TRUE(vfs.Truncate(path, 4).ok());
  EXPECT_EQ(vfs.FileSize(path).value(), 4u);

  const std::string renamed = dir + "/blob2";
  ASSERT_TRUE(vfs.Rename(path, renamed).ok());
  EXPECT_FALSE(vfs.Exists(path));
  std::vector<std::string> names = vfs.List(dir).value();
  EXPECT_NE(std::find(names.begin(), names.end(), "blob2"), names.end());

  ASSERT_TRUE(vfs.Unlink(renamed).ok());
  EXPECT_FALSE(vfs.Exists(renamed));
  EXPECT_EQ(vfs.ReadAll(renamed).status().code(), StatusCode::kNotFound);
  RemoveTree(dir);
}

TEST(DurabilityVfs, FaultKindsSurfaceTypedStatuses) {
  std::string dir = TempDirPath("vfs-faults");
  RemoveTree(dir);
  ASSERT_TRUE(DefaultVfs().CreateDirs(dir).ok());
  std::vector<std::uint8_t> payload(32, 0xAB);

  {
    // Short write: typed kIoError, and exactly half the bytes land (the
    // torn-write shape recovery must tolerate).
    FaultInjectingVfs vfs(DefaultVfs());
    vfs.Arm({1, FaultInjectingVfs::FaultKind::kShortWrite, false});
    auto file = vfs.OpenTrunc(dir + "/short");
    ASSERT_TRUE(file.ok());
    Status appended = (*file)->Append(payload);
    EXPECT_EQ(appended.code(), StatusCode::kIoError);
    EXPECT_EQ(DefaultVfs().FileSize(dir + "/short").value(),
              payload.size() / 2);
  }
  {
    // ENOSPC: kResourceExhausted, nothing written.
    FaultInjectingVfs vfs(DefaultVfs());
    vfs.Arm({1, FaultInjectingVfs::FaultKind::kEnospc, false});
    auto file = vfs.OpenTrunc(dir + "/nospace");
    ASSERT_TRUE(file.ok());
    EXPECT_EQ((*file)->Append(payload).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(DefaultVfs().FileSize(dir + "/nospace").value(), 0u);
  }
  {
    // fsync failure fires only on Sync — the Append before it passes.
    FaultInjectingVfs vfs(DefaultVfs());
    vfs.Arm({1, FaultInjectingVfs::FaultKind::kFsyncFail, false});
    auto file = vfs.OpenTrunc(dir + "/fsync");
    ASSERT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Append(payload).ok());
    EXPECT_EQ((*file)->Sync().code(), StatusCode::kIoError);
    EXPECT_EQ(vfs.sync_calls(), 1u);
  }
  {
    // Crash at syscall N: a torn write, then everything — reads included —
    // is kUnavailable until Reset.
    FaultInjectingVfs vfs(DefaultVfs());
    vfs.Arm({2, FaultInjectingVfs::FaultKind::kCrash, false});
    auto file = vfs.OpenTrunc(dir + "/crash");
    ASSERT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Append(payload).ok());
    EXPECT_EQ((*file)->Append(payload).code(), StatusCode::kUnavailable);
    EXPECT_TRUE(vfs.crashed());
    EXPECT_EQ(vfs.ReadAll(dir + "/crash").status().code(),
              StatusCode::kUnavailable);
    EXPECT_FALSE(vfs.Exists(dir + "/crash"));
    // Half of the second append landed after the first full one.
    EXPECT_EQ(DefaultVfs().FileSize(dir + "/crash").value(),
              payload.size() + payload.size() / 2);
    vfs.Reset();
    EXPECT_FALSE(vfs.crashed());
    EXPECT_TRUE(vfs.Exists(dir + "/crash"));
  }
  {
    // A transient fault disarms after firing once.
    FaultInjectingVfs vfs(DefaultVfs());
    vfs.Arm({1, FaultInjectingVfs::FaultKind::kEio, true});
    auto file = vfs.OpenTrunc(dir + "/transient");
    ASSERT_TRUE(file.ok());
    EXPECT_EQ((*file)->Append(payload).code(), StatusCode::kIoError);
    EXPECT_TRUE((*file)->Append(payload).ok());
  }
  RemoveTree(dir);
}

TEST(DurabilityVfs, WalRetriesTransientCommitFailure) {
  std::string dir = TempDirPath("vfs-retry");
  RemoveTree(dir);
  ASSERT_TRUE(DefaultVfs().CreateDirs(dir).ok());
  FaultInjectingVfs vfs(DefaultVfs());

  WalOptions options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = std::chrono::microseconds{0};
  const std::string path = dir + "/journal.wal";
  Result<WriteAheadLog> wal = WriteAheadLog::Open(vfs, path, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(SampleInsert()).ok());
  const std::uint64_t committed = wal->committed_bytes();

  // A short write tears the next commit mid-frame; the retry truncates the
  // garbage back to the committed prefix and rewrites the whole group.
  vfs.Arm({vfs.write_ops() + 1, FaultInjectingVfs::FaultKind::kShortWrite,
           /*transient=*/true});
  ASSERT_TRUE(wal->Append(SampleInsert()).ok());
  EXPECT_GT(wal->committed_bytes(), committed);

  Result<WalReadResult> read = ReadWal(vfs, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 2u);
  EXPECT_FALSE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, wal->committed_bytes());
  RemoveTree(dir);
}

// --- Sync-policy boundaries ----------------------------------------------

TEST(DurabilityWalSyncPolicy, EveryNCommitsWithNOneMatchesEveryCommit) {
  std::string dir = TempDirPath("sync-n1");
  RemoveTree(dir);
  ASSERT_TRUE(DefaultVfs().CreateDirs(dir).ok());

  auto count_syncs = [&](const WalOptions& options, const char* name) {
    FaultInjectingVfs vfs(DefaultVfs());
    Result<WriteAheadLog> wal =
        WriteAheadLog::Open(vfs, dir + "/" + name, options);
    EXPECT_TRUE(wal.ok());
    for (int i = 0; i < 9; ++i) EXPECT_TRUE(wal->Append(SampleInsert()).ok());
    return vfs.sync_calls();
  };

  WalOptions every;
  every.sync = WalSyncPolicy::kEveryCommit;
  WalOptions n_one;
  n_one.sync = WalSyncPolicy::kEveryNCommits;
  n_one.sync_interval = 1;
  EXPECT_EQ(count_syncs(n_one, "n1.wal"), count_syncs(every, "every.wal"));
  EXPECT_EQ(count_syncs(n_one, "n1b.wal"), 9u);
  RemoveTree(dir);
}

TEST(DurabilityWalSyncPolicy, EveryNCommitsTailIsAtMostNMinusOneGroups) {
  std::string dir = TempDirPath("sync-n4");
  RemoveTree(dir);
  ASSERT_TRUE(DefaultVfs().CreateDirs(dir).ok());
  FaultInjectingVfs vfs(DefaultVfs());

  WalOptions options;
  options.sync = WalSyncPolicy::kEveryNCommits;
  options.sync_interval = 4;
  Result<WriteAheadLog> wal =
      WriteAheadLog::Open(vfs, dir + "/n4.wal", options);
  ASSERT_TRUE(wal.ok());
  for (int commit = 1; commit <= 11; ++commit) {
    ASSERT_TRUE(wal->Append(SampleInsert()).ok());
    // After k commits, exactly floor(k/N) syncs happened — equivalently,
    // the un-fsynced tail never exceeds N-1 commit groups.
    EXPECT_EQ(vfs.sync_calls(), static_cast<std::uint64_t>(commit / 4))
        << "after commit " << commit;
  }
  RemoveTree(dir);
}

// --- Recovery edge cases --------------------------------------------------

TEST(DurabilityRecoveryEdges, EmptyJournalFileRecoversSnapshotOnly) {
  std::string dir = TempDirPath("edge-empty");
  RemoveTree(dir);
  std::string snapshot_digest;
  {
    Result<DurableDocumentStore> store =
        DurableDocumentStore::Create(dir, SmallPlayXml());
    ASSERT_TRUE(store.ok());
    snapshot_digest = StateDigest(store->document());
  }
  std::error_code ec;
  fs::resize_file(DurableDocumentStore::JournalPath(dir, 0), 0, ec);
  ASSERT_FALSE(ec);

  Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->recovery_stats().inserts_applied, 0u);
  EXPECT_EQ(StateDigest(store->document()), snapshot_digest);
  RemoveTree(dir);
}

TEST(DurabilityRecoveryEdges, JournalTruncatedInsideMagicRecovers) {
  std::string dir = TempDirPath("edge-magic");
  RemoveTree(dir);
  std::string snapshot_digest;
  {
    Result<DurableDocumentStore> store =
        DurableDocumentStore::Create(dir, SmallPlayXml());
    ASSERT_TRUE(store.ok());
    std::vector<NodeId> scenes = store->Query("//scene").value();
    ASSERT_TRUE(store->AppendChild(scenes[0], "extra").ok());
    ASSERT_TRUE(store->Flush().ok());
    snapshot_digest = StateDigest(store->document());
  }
  // Chop the file inside the 8-byte magic: nothing in it is trustworthy,
  // and recovery must fall back to the snapshot alone — cleanly.
  std::error_code ec;
  fs::resize_file(DurableDocumentStore::JournalPath(dir, 0), 4, ec);
  ASSERT_FALSE(ec);

  Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store->recovery_stats().tail_truncated);
  EXPECT_EQ(store->recovery_stats().bytes_dropped, 4u);
  EXPECT_EQ(store->recovery_stats().inserts_applied, 0u);
  EXPECT_NE(StateDigest(store->document()), snapshot_digest);  // op lost
  // The journal was reinitialized; further work persists.
  std::vector<NodeId> scenes = store->Query("//scene").value();
  ASSERT_TRUE(store->AppendChild(scenes[0], "post").ok());
  ASSERT_TRUE(store->Flush().ok());
  RemoveTree(dir);
}

TEST(DurabilityRecoveryEdges, ManifestPointingAtMissingSnapshotIsTyped) {
  std::string dir = TempDirPath("edge-missing");
  RemoveTree(dir);
  {
    Result<DurableDocumentStore> store =
        DurableDocumentStore::Create(dir, SmallPlayXml());
    ASSERT_TRUE(store.ok());
  }
  ASSERT_TRUE(
      DefaultVfs().Unlink(DurableDocumentStore::SnapshotPath(dir, 0)).ok());

  Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kNotFound);
  EXPECT_NE(store.status().message().find("neither a snapshot nor a delta"),
            std::string::npos);
  RemoveTree(dir);
}

/// A consistent self-label craft of `xml`'s leaf row `row`: its
/// self-label becomes `self`, its label the parent's label times `self`
/// with the fingerprint recomputed, and the SC table is rebuilt over the
/// new self-labels in records of `group_size`, each solved. Every check
/// but the one on the self-label itself passes.
struct SelfLabelCraft {
  std::vector<CatalogRow> rows;
  ScTable sc_table;
};
SelfLabelCraft CraftSelfLabel(const std::string& xml, std::size_t row,
                              std::uint64_t self, int group_size) {
  Result<LabeledDocument> doc = LabeledDocument::FromXml(xml);
  PL_CHECK(doc.ok());
  std::vector<CatalogRow> rows = doc->ToCatalogRows();
  CatalogRow& leaf = rows[row];
  leaf.self = self;
  leaf.label = rows[static_cast<std::size_t>(leaf.parent)].label *
               BigInt::FromUint64(self);
  leaf.fingerprint = FingerprintOf(leaf.label);
  std::vector<std::uint64_t> selves;  // document order, root excluded
  for (std::size_t i = 1; i < rows.size(); ++i) selves.push_back(rows[i].self);
  ScTable table(group_size);
  table.Build(selves);  // orders 1, 2, ...: each below its modulus here
  return {std::move(rows), std::move(table)};
}

TEST(DurabilityRecoveryEdges, CraftedSelfLabelsFailLoadAndOpenCleanly) {
  // v5 snapshots written by WriteCatalog, so every section digest
  // verifies, with a self-label divisibility cannot trust. Load, Open and
  // the mapped open must all fail with kCorruption naming the self-label:
  // not abort in the prime-stream lookup, adopt two nodes sharing one
  // prime, sieve towards a huge prime, or serve a composite self-label
  // (which divides its relatives' labels and answers ancestry wrongly).
  // (ctest runs this test under a tight TIMEOUT: the 2^61-1 craft once
  // sieved until killed.)
  struct Craft {
    std::string what;
    std::string xml;
    std::vector<CatalogRow> rows;
    ScTable sc_table;
    std::uint64_t self;
  };
  std::vector<Craft> crafts;
  {
    // Inconsistent crafts: only row 1's self-label changes.
    Result<LabeledDocument> doc = LabeledDocument::FromXml(SmallPlayXml());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const std::vector<CatalogRow> rows = doc->ToCatalogRows();
    ASSERT_GE(rows.size(), 3u);
    for (const auto& [what, self] :
         std::vector<std::pair<std::string, std::uint64_t>>{
             {"self-label 4", 4}, {"self-label of row 2", rows[2].self}}) {
      std::vector<CatalogRow> crafted = rows;
      crafted[1].self = self;
      crafts.push_back({what, SmallPlayXml(), std::move(crafted),
                        doc->scheme().sc_table(), self});
    }
  }
  // Consistent crafts of <a><b><c/></b><d/><e/></a>'s last row e.
  const std::string xml = "<a><b><c/></b><d/><e/></a>";
  {
    // A prime far past the stream's bound.
    const std::uint64_t mersenne61 = (std::uint64_t{1} << 61) - 1;
    SelfLabelCraft craft = CraftSelfLabel(xml, 4, mersenne61, 5);
    crafts.push_back({"self-label 2^61-1", xml, std::move(craft.rows),
                      std::move(craft.sc_table), mersenne61});
  }
  {
    // A composite, in one-node SC records: label 6 = 2 * 3, so b (self 2)
    // would divide it and pass for e's ancestor.
    SelfLabelCraft craft = CraftSelfLabel(xml, 4, 6, 1);
    crafts.push_back({"self-label 6", xml, std::move(craft.rows),
                      std::move(craft.sc_table), 6});
  }

  for (const Craft& craft : crafts) {
    SCOPED_TRACE(craft.what);
    const std::string named = "self-label " + std::to_string(craft.self);
    auto expect_corruption = [&](const Status& status, const char* path) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << path << ": " << status.ToString();
      EXPECT_NE(status.message().find(named), std::string::npos)
          << path << ": " << status.ToString();
    };
    const std::string dir = TempDirPath("crafted-self");
    RemoveTree(dir);
    {
      Result<DurableDocumentStore> created =
          DurableDocumentStore::Create(dir, craft.xml);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
    }
    const std::string snapshot = DurableDocumentStore::SnapshotPath(dir, 0);
    ASSERT_TRUE(
        WriteCatalog(DefaultVfs(), snapshot, craft.rows, craft.sc_table)
            .ok());

    Result<LabeledDocument> loaded = LabeledDocument::Load(snapshot);
    ASSERT_FALSE(loaded.ok());
    expect_corruption(loaded.status(), "Load");
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kCorruption)
        << "Open: " << store.status().ToString();
    // The mapped open serves ancestry straight from the image, so it must
    // reject exactly the files Load rejects.
    Result<LoadedCatalog> mapped = OpenCatalogMapped(DefaultVfs(), snapshot);
    ASSERT_FALSE(mapped.ok());
    expect_corruption(mapped.status(), "OpenCatalogMapped");
    RemoveTree(dir);
  }
}

TEST(DurabilityRecoveryEdges, SelfLabelHeldByNoScRecordFailsOpenCleanly) {
  // v5 snapshots written by WriteCatalog, so every section digest
  // verifies, whose rows and SC moduli do not pair up. In the first, row 3
  // carries a prime self-label that no SC record holds: the row has no
  // order. In the mirror craft, an extra SC record {modulus 4, order 3}
  // holds a modulus that no row carries: the first ordered insert that
  // shifts its order looks for a node to relabel and finds none. Every
  // open path must fail with a typed error naming the stray value, not
  // abort on the first order lookup or insert.
  struct Craft {
    std::string xml;
    std::vector<CatalogRow> rows;
    ScTable sc_table;
    std::string named;
  };
  std::vector<Craft> crafts;
  {
    Result<LabeledDocument> doc = LabeledDocument::FromXml(SmallPlayXml());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    std::vector<CatalogRow> rows = doc->ToCatalogRows();
    ASSERT_GE(rows.size(), 4u);
    constexpr std::uint64_t kStray = 1000003;  // a prime
    ASSERT_FALSE(doc->scheme().sc_table().Contains(kStray));
    rows[3].self = kStray;
    crafts.push_back({SmallPlayXml(), std::move(rows),
                      doc->scheme().sc_table(),
                      "self-label " + std::to_string(kStray)});
  }
  {
    const std::string xml = "<a><b/><c/><d/></a>";
    Result<LabeledDocument> doc = LabeledDocument::FromXml(xml);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const ScTable& table = doc->scheme().sc_table();
    ASSERT_FALSE(table.Contains(4));
    std::vector<ScRecord> records = table.records();
    ScRecord phantom;
    phantom.moduli = {4};
    phantom.sc = BigInt(3);  // FromRecords adopts it; 3 mod 4 is the order
    records.push_back(std::move(phantom));
    Result<ScTable> crafted =
        ScTable::FromRecords(table.group_size(), std::move(records));
    ASSERT_TRUE(crafted.ok()) << crafted.status().ToString();
    crafts.push_back({xml, doc->ToCatalogRows(), std::move(crafted.value()),
                      "SC modulus 4"});
  }

  for (const Craft& craft : crafts) {
    SCOPED_TRACE(craft.named);
    auto expect_corruption = [&](const Status& status, const char* path) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << path << ": " << status.ToString();
      EXPECT_NE(status.message().find(craft.named), std::string::npos)
          << path << ": " << status.ToString();
    };

    // The rows-level check, which delta chains and v2/v3 files reach
    // without an image.
    Result<LabeledDocument> rebuilt = LabeledDocument::FromCatalogRows(
        craft.rows, craft.sc_table, /*fingerprints_valid=*/true,
        "crafted rows");
    ASSERT_FALSE(rebuilt.ok());
    expect_corruption(rebuilt.status(), "FromCatalogRows");

    const std::string dir = TempDirPath("crafted-orderless");
    RemoveTree(dir);
    {
      Result<DurableDocumentStore> created =
          DurableDocumentStore::Create(dir, craft.xml);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
    }
    const std::string snapshot = DurableDocumentStore::SnapshotPath(dir, 0);
    ASSERT_TRUE(
        WriteCatalog(DefaultVfs(), snapshot, craft.rows, craft.sc_table)
            .ok());

    Result<LoadedCatalog> mapped = OpenCatalogMapped(DefaultVfs(), snapshot);
    ASSERT_FALSE(mapped.ok());
    expect_corruption(mapped.status(), "OpenCatalogMapped");
    Result<LabeledDocument> loaded = LabeledDocument::Load(snapshot);
    ASSERT_FALSE(loaded.ok());
    expect_corruption(loaded.status(), "Load");
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    ASSERT_FALSE(store.ok());
    expect_corruption(store.status(), "Open");
    RemoveTree(dir);
  }
}

TEST(DurabilityRecoveryEdges, CraftedRowStructureFailsOpenCleanly) {
  // v5 snapshots written by WriteCatalog, so every section digest
  // verifies, each with one row's tree structure broken: a `line` row
  // whose parent is itself (a query's ancestor walk would never end), one
  // whose parent is far past the rows (an out-of-range read), an inner
  // `line` row with such a parent, and a row whose label skips its parent
  // (its grandparent's label times its self-label, fingerprint recomputed
  // to match), which makes divisibility answer for another tree than the
  // parents describe. Every open path must fail with a typed error naming
  // the row before any query can run.
  Result<LabeledDocument> doc = LabeledDocument::FromXml(SmallPlayXml());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::vector<CatalogRow> rows = doc->ToCatalogRows();
  std::vector<std::size_t> lines;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].is_element && rows[i].tag == "line") lines.push_back(i);
  }
  ASSERT_GE(lines.size(), 3u);
  const std::size_t last = lines.back();
  const std::size_t inner = lines[lines.size() / 2];
  ASSERT_GT(rows[3].parent, 0) << "row 3 needs a grandparent";
  const CatalogRow& grandparent = rows[rows[rows[3].parent].parent];

  auto with_parent = [&rows](std::size_t row, std::int64_t parent) {
    std::vector<CatalogRow> crafted = rows;
    crafted[row].parent = parent;
    return crafted;
  };
  std::vector<CatalogRow> skipping = rows;
  skipping[3].label = grandparent.label * BigInt::FromUint64(rows[3].self);
  skipping[3].fingerprint = FingerprintOf(skipping[3].label);
  const std::vector<std::pair<std::size_t, std::vector<CatalogRow>>> crafts =
      {{last, with_parent(last, static_cast<std::int64_t>(last))},
       {last, with_parent(last, 100000000)},
       {inner, with_parent(inner, 1000000)},
       {3, skipping}};

  for (const auto& [row, crafted] : crafts) {
    const std::string named = "row " + std::to_string(row) + " is not";
    auto expect_corruption = [&](const Status& status, const char* path) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << path << ", " << named << ": " << status.ToString();
      EXPECT_NE(status.message().find(named), std::string::npos)
          << path << ": " << status.ToString();
    };
    const std::string dir = TempDirPath("crafted-structure");
    RemoveTree(dir);
    {
      Result<DurableDocumentStore> created =
          DurableDocumentStore::Create(dir, SmallPlayXml());
      ASSERT_TRUE(created.ok()) << created.status().ToString();
    }
    const std::string snapshot = DurableDocumentStore::SnapshotPath(dir, 0);
    ASSERT_TRUE(WriteCatalog(DefaultVfs(), snapshot, crafted,
                             doc->scheme().sc_table())
                    .ok());

    Result<LoadedCatalog> mapped = OpenCatalogMapped(DefaultVfs(), snapshot);
    ASSERT_FALSE(mapped.ok()) << named;
    expect_corruption(mapped.status(), "OpenCatalogMapped");
    Result<LabeledDocument> loaded = LabeledDocument::Load(snapshot);
    ASSERT_FALSE(loaded.ok()) << named;
    expect_corruption(loaded.status(), "Load");
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    ASSERT_FALSE(store.ok()) << named;
    expect_corruption(store.status(), "Open");
    RemoveTree(dir);
  }
}

TEST(DurabilityRecoveryEdges, CraftedV2SnapshotFailsOpenCleanly) {
  // A store's epoch-0 snapshot replaced by a hand-written v2 catalog (the
  // row-interleaved layout LoadCatalog still reads) of the same rows and
  // SC records, except that the last row's parent lies far past the rows.
  // v2 files carry no checksum, so nothing but the row-structure check
  // stands between those rows and recovery, which indexes rows by parent.
  // Open, LoadCatalog and Load must each fail with a typed error naming
  // the row, with the snapshot as the current epoch and as the base of
  // the legacy delta epoch in a copy of the limb32_store fixture.
  for (const bool delta_base : {false, true}) {
    const std::string dir = TempDirPath("crafted-v2");
    RemoveTree(dir);
    if (delta_base) {
      CopyLimb32Store(dir);
    } else {
      Result<DurableDocumentStore> created =
          DurableDocumentStore::Create(dir, SmallPlayXml());
      ASSERT_TRUE(created.ok()) << created.status().ToString();
    }
    const std::string snapshot = DurableDocumentStore::SnapshotPath(dir, 0);
    Result<CatalogState> state = LoadCatalog(DefaultVfs(), snapshot);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    const std::size_t last = state->rows.size() - 1;
    state->rows[last].parent = 100000000;

    ByteWriter v2;
    v2.Bytes("PLCATLG2", 8);
    v2.U64(state->rows.size());
    for (const CatalogRow& row : state->rows) {
      EncodeCatalogRow(row, /*with_fingerprint=*/false, &v2);
    }
    v2.U32(static_cast<std::uint32_t>(state->sc_table.group_size()));
    v2.U64(state->sc_table.records().size());
    for (const ScRecord& record : state->sc_table.records()) {
      v2.U32(static_cast<std::uint32_t>(record.moduli.size()));
      for (std::uint64_t modulus : record.moduli) {
        v2.U64(modulus);
        v2.U64(record.sc.ModU64(modulus));  // v2 stores each order
      }
      v2.Big(record.sc);
    }
    WriteFileBytes(snapshot, v2.Take());

    const std::string named = "row " + std::to_string(last) + " is not";
    auto expect_corruption = [&](const Status& status, const char* path) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << path << ", delta base " << delta_base << ": "
          << status.ToString();
      EXPECT_NE(status.message().find(named), std::string::npos)
          << path << ": " << status.ToString();
    };
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    ASSERT_FALSE(store.ok());
    expect_corruption(store.status(), "Open");
    Result<CatalogState> reloaded = LoadCatalog(DefaultVfs(), snapshot);
    ASSERT_FALSE(reloaded.ok());
    expect_corruption(reloaded.status(), "LoadCatalog");
    Result<LabeledDocument> loaded = LabeledDocument::Load(snapshot);
    ASSERT_FALSE(loaded.ok());
    expect_corruption(loaded.status(), "Load");
    RemoveTree(dir);
  }
}

// --- Quarantine on journaling failures -----------------------------------

struct QuarantineFixture {
  std::string dir;
  FaultInjectingVfs vfs{DefaultVfs()};
  DurableDocumentStore::Options options;

  explicit QuarantineFixture(const char* name) : dir(TempDirPath(name)) {
    RemoveTree(dir);
    options.vfs = &vfs;
  }
  Result<DurableDocumentStore> CreateStore() {
    return DurableDocumentStore::Create(dir, SmallPlayXml(), options);
  }
};

TEST(DurabilityQuarantine, JournalEioQuarantinesAndRollsBack) {
  QuarantineFixture fx("quarantine-eio");
  Result<DurableDocumentStore> store = fx.CreateStore();
  ASSERT_TRUE(store.ok());
  std::vector<NodeId> scenes = store->Query("//scene").value();
  ASSERT_TRUE(store->AppendChild(scenes[0], "pre").ok());
  const std::string durable_digest = StateDigest(store->document());

  fx.vfs.Arm({fx.vfs.write_ops() + 1, FaultInjectingVfs::FaultKind::kEio,
              /*transient=*/false});
  Result<NodeId> failed = store->AppendChild(scenes[0], "doomed");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store->quarantined());
  EXPECT_NE(store->quarantine_reason().message().find("quarantined"),
            std::string::npos);

  // The un-journaled op was rolled back: queries serve the last durable
  // state, bit-identical to what a restart will recover.
  EXPECT_EQ(StateDigest(store->document()), durable_digest);
  EXPECT_TRUE(store->Query("//speech").ok());
  EXPECT_EQ(store->Query("//doomed").value().size(), 0u);

  // Everything that writes is refused with the quarantine status.
  EXPECT_EQ(store->AppendChild(scenes[0], "more").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(store->Delete(scenes[0]).code(), StatusCode::kUnavailable);
  EXPECT_EQ(store->Flush().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store->Checkpoint().code(), StatusCode::kUnavailable);

  // A clean reopen recovers exactly the durable state and is writable.
  fx.vfs.Reset();
  store = DurableDocumentStore::Open(fx.dir, fx.options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(store->quarantined());
  EXPECT_EQ(StateDigest(store->document()), durable_digest);
  scenes = store->Query("//scene").value();
  ASSERT_TRUE(store->AppendChild(scenes[0], "after").ok());
  ASSERT_TRUE(store->Flush().ok());
  RemoveTree(fx.dir);
}

TEST(DurabilityQuarantine, EnospcQuarantinesWithResourceCause) {
  QuarantineFixture fx("quarantine-enospc");
  Result<DurableDocumentStore> store = fx.CreateStore();
  ASSERT_TRUE(store.ok());
  const std::string durable_digest = StateDigest(store->document());
  std::vector<NodeId> scenes = store->Query("//scene").value();

  fx.vfs.Arm({fx.vfs.write_ops() + 1, FaultInjectingVfs::FaultKind::kEnospc,
              /*transient=*/false});
  Result<NodeId> failed = store->AppendChild(scenes[0], "doomed");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.status().message().find("ENOSPC"), std::string::npos);
  EXPECT_TRUE(store->quarantined());
  EXPECT_EQ(StateDigest(store->document()), durable_digest);

  fx.vfs.Reset();
  Result<DurableDocumentStore> reopened =
      DurableDocumentStore::Open(fx.dir, fx.options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(StateDigest(reopened->document()), durable_digest);
  RemoveTree(fx.dir);
}

TEST(DurabilityQuarantine, FsyncFailureUnderEveryCommitQuarantines) {
  QuarantineFixture fx("quarantine-fsync");
  fx.options.wal.sync = WalSyncPolicy::kEveryCommit;
  Result<DurableDocumentStore> store = fx.CreateStore();
  ASSERT_TRUE(store.ok());
  std::vector<NodeId> scenes = store->Query("//scene").value();
  ASSERT_TRUE(store->AppendChild(scenes[0], "pre").ok());

  fx.vfs.Arm({fx.vfs.write_ops() + 1,
              FaultInjectingVfs::FaultKind::kFsyncFail,
              /*transient=*/false});
  Result<NodeId> failed = store->AppendChild(scenes[0], "unsynced");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store->quarantined());

  // fsync failed after the frames hit the OS, so the op IS part of the
  // committed prefix: the rolled-back state and a clean reopen must agree
  // (no silent divergence) — both include the write whose durability the
  // store could no longer vouch for.
  const std::string quarantined_digest = StateDigest(store->document());
  fx.vfs.Reset();
  Result<DurableDocumentStore> reopened =
      DurableDocumentStore::Open(fx.dir, fx.options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), quarantined_digest);
  RemoveTree(fx.dir);
}

TEST(DurabilityQuarantine, CrashMidAppendQuarantinesAndRecoversOnReopen) {
  QuarantineFixture fx("quarantine-crash");
  Result<DurableDocumentStore> store = fx.CreateStore();
  ASSERT_TRUE(store.ok());
  std::vector<NodeId> scenes = store->Query("//scene").value();
  ASSERT_TRUE(store->AppendChild(scenes[0], "pre").ok());
  const std::string durable_digest = StateDigest(store->document());

  fx.vfs.Arm({fx.vfs.write_ops() + 1, FaultInjectingVfs::FaultKind::kCrash,
              /*transient=*/false});
  Result<NodeId> failed = store->AppendChild(scenes[0], "torn");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store->quarantined());
  // Rollback could not read the durable files (the "process" is dead), so
  // the reason says the in-memory state may be ahead.
  EXPECT_NE(store->quarantine_reason().message().find("may be ahead"),
            std::string::npos);
  EXPECT_EQ(store->AppendChild(scenes[0], "x").status().code(),
            StatusCode::kUnavailable);

  // Restart: the torn half-frame is truncated away and the durable state
  // comes back intact.
  fx.vfs.Reset();
  Result<DurableDocumentStore> reopened =
      DurableDocumentStore::Open(fx.dir, fx.options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), durable_digest);
  EXPECT_EQ(reopened->Query("//torn").value().size(), 0u);
  RemoveTree(fx.dir);
}

TEST(DurabilityQuarantine, CheckpointFailureBeforePublishLeavesStoreLive) {
  QuarantineFixture fx("checkpoint-fail");
  Result<DurableDocumentStore> store = fx.CreateStore();
  ASSERT_TRUE(store.ok());
  std::vector<NodeId> scenes = store->Query("//scene").value();
  ASSERT_TRUE(store->AppendChild(scenes[0], "pre").ok());

  // Fail the MANIFEST rename — the last step before the new epoch becomes
  // authoritative. Ordinals within Checkpoint: journal fsync (1), snapshot
  // write+sync (2,3), new journal header (4), manifest tmp write+sync
  // (5,6), rename (7).
  fx.vfs.Arm({fx.vfs.write_ops() + 7, FaultInjectingVfs::FaultKind::kEio,
              /*transient=*/true});
  Status checkpointed = store->Checkpoint();
  EXPECT_EQ(checkpointed.code(), StatusCode::kIoError);

  // Not a durability breach: the old epoch is still authoritative and the
  // store keeps accepting work.
  EXPECT_FALSE(store->quarantined());
  EXPECT_EQ(store->epoch(), 0u);
  ASSERT_TRUE(store->AppendChild(scenes[0], "alive").ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->epoch(), 1u);
  ASSERT_TRUE(store->Flush().ok());
  const std::string live_digest = StateDigest(store->document());

  // Reopen sweeps whatever debris the failed attempt left behind.
  Result<DurableDocumentStore> reopened =
      DurableDocumentStore::Open(fx.dir, fx.options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), live_digest);
  EXPECT_FALSE(DefaultVfs().Exists(fx.dir + "/MANIFEST.tmp"));
  RemoveTree(fx.dir);
}

// --- Delta checkpoints ----------------------------------------------------

TEST(DurabilityDelta, DeltaAndFullCheckpointsRecoverIdentically) {
  // Random inserts with a checkpoint every fifth op: a reopen recovers
  // exactly the live document.
  std::string dir = TempDirPath("checkpoints-recover");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok());
  std::mt19937 rng(777);
  for (int i = 0; i < 18; ++i) {
    std::vector<NodeId> elements = NonRootElements(store->document().tree());
    NodeId anchor = elements[rng() % elements.size()];
    switch (rng() % 4) {
      case 0: EXPECT_TRUE(store->InsertBefore(anchor, "ib").ok()); break;
      case 1: EXPECT_TRUE(store->InsertAfter(anchor, "ia").ok()); break;
      case 2: EXPECT_TRUE(store->AppendChild(anchor, "ac").ok()); break;
      case 3: EXPECT_TRUE(store->Wrap(anchor, "wr").ok()); break;
    }
    if (i % 5 == 4) {
      EXPECT_TRUE(store->Checkpoint().ok());
    }
  }
  EXPECT_TRUE(store->Flush().ok());
  Result<DurableDocumentStore> reopened = DurableDocumentStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(store->document()),
            StateDigest(reopened->document()));
  RemoveTree(dir);
}

TEST(DurabilityDelta, ScRelabelHeavyWorkloadSurvivesDeltaCheckpoints) {
  // InsertBefore at a group's head and Wrap both drive SC rewrites that
  // can replace self-labels (ReplaceSelf relabels whole subtrees) — the
  // hardest case for delta change detection, since rows change without
  // their nodes moving.
  std::string dir = TempDirPath("delta-screlabel");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok());
  std::mt19937 rng(4242);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 6; ++i) {
      std::vector<NodeId> elements =
          NonRootElements(store->document().tree());
      NodeId anchor = elements[rng() % elements.size()];
      if (i % 2 == 0) {
        ASSERT_TRUE(store->InsertBefore(anchor, "head").ok());
      } else {
        ASSERT_TRUE(store->Wrap(anchor, "wrap").ok());
      }
    }
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  const std::string live_digest = StateDigest(store->document());

  Result<DurableDocumentStore> reopened = DurableDocumentStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), live_digest);
  RemoveTree(dir);
}

TEST(DurabilityDelta, CraftedFinalCountsFailRecoveryCleanly) {
  // A delta whose checksum verifies but whose final row count or final SC
  // record count claims 2^40 entries: recovery must reject it before
  // sizing anything from those counts. The store is a copy of the
  // committed fixture (epoch-0 snapshot + delta-1 + journal).
  const std::string fixture =
      std::string(PRIMELABEL_TEST_DATA_DIR) + "/limb32_store";
  const std::string delta_name = "delta-1.pld";
  Result<DeltaSnapshot> decoded = DecodeDelta(
      ReadFileBytes(fixture + "/" + delta_name), delta_name);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  for (int field = 0; field < 2; ++field) {
    DeltaSnapshot crafted = decoded.value();
    (field == 0 ? crafted.final_row_count : crafted.sc_final_record_count) =
        kHuge;
    const std::string dir = TempDirPath("crafted-delta");
    CopyLimb32Store(dir);
    WriteFileBytes(dir + "/" + delta_name, EncodeDelta(crafted));
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    EXPECT_FALSE(store.ok()) << "field " << field;
    RemoveTree(dir);
  }
}

TEST(DurabilityDelta, CraftedScRecordsFailRecoveryCleanly) {
  // A delta whose checksum verifies but whose first SC change record no
  // longer solves, or repeats a modulus of another record: recovery must
  // fail with a typed error, not abort in the CRT solve or re-index the
  // repeat silently. Same fixture copy as above, one craft per store.
  const std::string fixture =
      std::string(PRIMELABEL_TEST_DATA_DIR) + "/limb32_store";
  const std::string delta_name = "delta-1.pld";
  Result<DeltaSnapshot> decoded = DecodeDelta(
      ReadFileBytes(fixture + "/" + delta_name), delta_name);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_GE(decoded->sc_changes.size(), 2u);
  ASSERT_GE(decoded->sc_changes[0].second.moduli.size(), 2u);
  const std::uint64_t other_modulus =
      decoded->sc_changes[1].second.moduli[0];
  const std::vector<std::pair<std::string,
                              std::function<void(ScRecord*)>>> crafts = {
      {"modulus repeated within the record",
       [](ScRecord* r) { r->moduli[1] = r->moduli[0]; }},
      {"zero modulus", [](ScRecord* r) { r->moduli[0] = 0; }},
      {"moduli 4 and 6",
       [](ScRecord* r) {
         r->moduli[0] = 4;
         r->moduli[1] = 6;
       }},
      {"modulus of another record",
       [other_modulus](ScRecord* r) { r->moduli[0] = other_modulus; }},
  };
  for (const auto& [what, craft] : crafts) {
    DeltaSnapshot crafted = decoded.value();
    craft(&crafted.sc_changes[0].second);
    const std::string dir = TempDirPath("crafted-sc-delta");
    CopyLimb32Store(dir);
    WriteFileBytes(dir + "/" + delta_name, EncodeDelta(crafted));
    Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
    ASSERT_FALSE(store.ok()) << what;
    EXPECT_EQ(store.status().code(), StatusCode::kCorruption)
        << what << ": " << store.status().ToString();
    RemoveTree(dir);
  }
}

/// The epoch a store's MANIFEST names ("PLMANIF1" + u64 little-endian).
std::uint64_t ManifestEpoch(const std::string& dir) {
  const std::vector<std::uint8_t> bytes =
      ReadFileBytes(DurableDocumentStore::ManifestPath(dir));
  EXPECT_EQ(bytes.size(), 16u);
  std::uint64_t epoch = 0;
  for (std::size_t i = 0; i < 8 && 8 + i < bytes.size(); ++i) {
    epoch |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
  }
  return epoch;
}

std::set<std::string> FileNames(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

TEST(DurabilityDelta, LegacyChainOpensAndCompactsIntoFullSnapshot) {
  // A store an older build left with a delta epoch: the limb32_store
  // fixture holds a PLDELTA1 chain, and its delta re-encoded as PLDELTA2
  // is the chain builds that wrote PLDELTA2 left. Open must recover the
  // recorded state and compact the chain into a v5 snapshot of the next
  // epoch before it returns, leaving no delta, old snapshot or old
  // journal behind; a second Open then has nothing to replay.
  const std::string fixture =
      std::string(PRIMELABEL_TEST_DATA_DIR) + "/limb32_store";
  const std::vector<std::uint8_t> digest_bytes =
      ReadFileBytes(fixture + "/DIGEST.txt");
  const std::string expected(digest_bytes.begin(), digest_bytes.end());
  ASSERT_FALSE(expected.empty());
  Result<DeltaSnapshot> pldelta1 =
      DecodeDelta(ReadFileBytes(fixture + "/delta-1.pld"), "delta-1.pld");
  ASSERT_TRUE(pldelta1.ok()) << pldelta1.status().ToString();
  for (const char* format : {"PLDELTA2", "PLDELTA1"}) {
    SCOPED_TRACE(format);
    const std::string dir = TempDirPath("legacy-chain");
    CopyLimb32Store(dir);
    const std::string delta = DurableDocumentStore::DeltaPath(dir, 1);
    if (std::string(format) == "PLDELTA2") {
      WriteFileBytes(delta, EncodeDelta(pldelta1.value()));
    }
    const std::vector<std::uint8_t> written = ReadFileBytes(delta);
    ASSERT_EQ(std::string(written.begin(), written.begin() + 8), format);
    {
      Result<DurableDocumentStore> store = DurableDocumentStore::Open(dir);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      EXPECT_GT(store->recovery_stats().inserts_applied, 0u);
      EXPECT_EQ(StateDigest(store->document()), expected);
      EXPECT_EQ(store->epoch(), 2u);
    }
    EXPECT_EQ(ManifestEpoch(dir), 2u);
    ASSERT_TRUE(fs::exists(DurableDocumentStore::SnapshotPath(dir, 2)));
    const std::vector<std::uint8_t> snapshot =
        ReadFileBytes(DurableDocumentStore::SnapshotPath(dir, 2));
    ASSERT_GE(snapshot.size(), 8u);
    EXPECT_EQ(std::string(snapshot.begin(), snapshot.begin() + 8),
              "PLCATLG5");
    // Only the new epoch's files, the MANIFEST and the fixture's digest.
    EXPECT_EQ(FileNames(dir),
              (std::set<std::string>{"DIGEST.txt", "MANIFEST",
                                     "journal-2.wal", "snapshot-2.plc"}));

    Result<DurableDocumentStore> reopened = DurableDocumentStore::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->epoch(), 2u);
    EXPECT_EQ(reopened->recovery_stats().inserts_applied, 0u);
    EXPECT_EQ(StateDigest(reopened->document()), expected);
    RemoveTree(dir);
  }
}

TEST(DurabilityDelta, FaultsDuringLegacyCompactionLeaveStoreOpenable) {
  // One fault at every write-class ordinal a clean Open of the legacy
  // fixture issues (the compacting Checkpoint, the retirement and the
  // sweep), for each fault kind: the faulted Open succeeds or fails
  // typed, and a clean Open after the reboot recovers the recorded state
  // as a full snapshot.
  const std::vector<std::uint8_t> digest_bytes = ReadFileBytes(
      std::string(PRIMELABEL_TEST_DATA_DIR) + "/limb32_store/DIGEST.txt");
  const std::string expected(digest_bytes.begin(), digest_bytes.end());
  const std::string dir = TempDirPath("legacy-compact-fault");
  std::uint64_t open_ops = 0;
  {
    CopyLimb32Store(dir);
    FaultInjectingVfs vfs(DefaultVfs());
    DurableDocumentStore::Options options;
    options.vfs = &vfs;
    ASSERT_TRUE(DurableDocumentStore::Open(dir, options).ok());
    open_ops = vfs.write_ops();
  }
  ASSERT_GT(open_ops, 0u);
  const FaultInjectingVfs::FaultKind kinds[] = {
      FaultInjectingVfs::FaultKind::kShortWrite,
      FaultInjectingVfs::FaultKind::kEio,
      FaultInjectingVfs::FaultKind::kEnospc,
      FaultInjectingVfs::FaultKind::kFsyncFail,
      FaultInjectingVfs::FaultKind::kCrash,
  };
  for (FaultInjectingVfs::FaultKind kind : kinds) {
    for (std::uint64_t ordinal = 1; ordinal <= open_ops; ++ordinal) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " ordinal=" + std::to_string(ordinal));
      CopyLimb32Store(dir);
      FaultInjectingVfs vfs(DefaultVfs());
      DurableDocumentStore::Options options;
      options.vfs = &vfs;
      vfs.Arm({ordinal, kind, /*transient=*/false});
      {
        Result<DurableDocumentStore> faulted =
            DurableDocumentStore::Open(dir, options);
        if (!faulted.ok()) {
          const StatusCode code = faulted.status().code();
          EXPECT_TRUE(code == StatusCode::kIoError ||
                      code == StatusCode::kResourceExhausted ||
                      code == StatusCode::kUnavailable)
              << faulted.status().ToString();
        }
      }
      vfs.Reset();
      Result<DurableDocumentStore> reopened =
          DurableDocumentStore::Open(dir, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ(StateDigest(reopened->document()), expected);
      for (const std::string& name : FileNames(dir)) {
        EXPECT_EQ(name.rfind("delta-", 0), std::string::npos) << name;
      }
    }
  }
  RemoveTree(dir);
}

// --- Epoch pins (single-threaded lifecycle; concurrency lives in
// epoch_concurrency_test.cc) ----------------------------------------------

TEST(EpochPinning, PinnedReaderSeesFrozenViewWhileWriterAdvances) {
  std::string dir = TempDirPath("pin-frozen");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok());
  std::vector<NodeId> scenes = store->Query("//scene").value();
  ASSERT_TRUE(store->AppendChild(scenes[0], "pinned").ok());
  const std::string pin_digest = StateDigest(store->document());

  Result<Snapshot> snap = store->OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap->valid());
  EXPECT_EQ(snap->epoch(), 0u);
  EXPECT_EQ(snap->journal_bytes(), store->durable_journal_bytes());

  // The writer moves on: more mutations and a checkpoint.
  ASSERT_TRUE(store->AppendChild(scenes[0], "later").ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->AppendChild(scenes[0], "latest").ok());
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_NE(StateDigest(store->document()), pin_digest);

  // The snapshot stays frozen at the committed prefix captured at open,
  // and queries evaluate against that frozen view.
  EXPECT_EQ(StateDigest(snap->document()), pin_digest);
  Result<std::vector<NodeId>> pinned = snap->Query("//pinned");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->size(), 1u);
  EXPECT_TRUE(snap->Query("//later")->empty());

  // A default (never-opened) snapshot refuses queries with a typed error.
  Snapshot closed;
  EXPECT_FALSE(closed.valid());
  EXPECT_EQ(closed.Query("//scene").status().code(),
            StatusCode::kInvalidArgument);
  RemoveTree(dir);
}

TEST(EpochPinning, PinKeepsRetiredEpochFilesUntilRelease) {
  std::string dir = TempDirPath("pin-retire");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok());
  const std::string pin_digest = StateDigest(store->document());
  Result<Snapshot> snap = store->OpenSnapshot();
  ASSERT_TRUE(snap.ok());

  std::vector<NodeId> scenes = store->Query("//scene").value();
  ASSERT_TRUE(store->AppendChild(scenes[0], "next").ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->epoch(), 1u);

  // The snapshot's pin is the only thing keeping epoch 0 alive.
  EXPECT_TRUE(fs::exists(DurableDocumentStore::SnapshotPath(dir, 0)));
  EXPECT_TRUE(fs::exists(DurableDocumentStore::JournalPath(dir, 0)));
  EXPECT_EQ(StateDigest(snap->document()), pin_digest);

  // Dropping the snapshot retires them.
  snap.value() = Snapshot();
  EXPECT_FALSE(fs::exists(DurableDocumentStore::SnapshotPath(dir, 0)));
  EXPECT_FALSE(fs::exists(DurableDocumentStore::JournalPath(dir, 0)));
  RemoveTree(dir);
}

TEST(EpochPinning, ViewsServeMoreScRecordsThanRows) {
  // A Delete empties SC records but leaves them in place, so once most
  // of a document is deleted its SC table holds more records than the
  // document has rows. Both view shapes (journaled, sealed snapshot) and
  // a reopen must still serve that store.
  std::string dir = TempDirPath("pin-sc-holes");
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Both acts and the personae go; the play keeps its title.
  const XmlTree& live = store->document().tree();
  for (NodeId child : live.Children(live.root())) {
    if (live.name(child) != "title") {
      ASSERT_TRUE(store->Delete(child).ok());
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_GT(store->document().scheme().sc_table().records().size(),
            store->document().tree().node_count());

  auto expect_view_matches_store = [&](const char* point) {
    Result<Snapshot> snap = store->OpenSnapshot();
    ASSERT_TRUE(snap.ok()) << point << ": " << snap.status().ToString();
    EXPECT_EQ(snap->node_count(), store->document().tree().node_count())
        << point;
    EXPECT_EQ(StateDigest(snap->document()), StateDigest(store->document()))
        << point;
    Result<std::vector<NodeId>> acts = snap->Query("//act");
    ASSERT_TRUE(acts.ok()) << point << ": " << acts.status().ToString();
    EXPECT_TRUE(acts->empty()) << point;
  };
  expect_view_matches_store("journaled epoch 0");
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(fs::exists(DurableDocumentStore::SnapshotPath(dir, 1)));
  expect_view_matches_store("sealed epoch 1");
  ASSERT_TRUE(
      store->AppendChild(store->document().tree().root(), "epilogue").ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(fs::exists(DurableDocumentStore::SnapshotPath(dir, 2)));
  expect_view_matches_store("sealed epoch 2");

  const std::string live_digest = StateDigest(store->document());
  Result<DurableDocumentStore> reopened = DurableDocumentStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), live_digest);
  RemoveTree(dir);
}

// --- Deterministic fault matrix ------------------------------------------

/// One cell of the fault matrix: create a store over an injector, run a
/// mixed workload with periodic checkpoints while one fault is armed, then
/// prove there was no crash and no silent divergence.
void RunFaultMatrixCell(FaultInjectingVfs::FaultKind kind,
                        std::uint64_t ordinal, unsigned seed,
                        const std::string& dir) {
  SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
               " ordinal=" + std::to_string(ordinal) +
               " seed=" + std::to_string(seed));
  RemoveTree(dir);
  FaultInjectingVfs vfs(DefaultVfs());
  DurableDocumentStore::Options options;
  options.vfs = &vfs;
  // Syncs in the op stream (so kFsyncFail has targets) without syncing
  // every commit.
  options.wal.sync = WalSyncPolicy::kEveryNCommits;
  options.wal.sync_interval = 3;
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml(), options);
  ASSERT_TRUE(store.ok());

  vfs.Arm({ordinal, kind, /*transient=*/false});
  std::mt19937 rng(seed);
  for (int i = 0; i < 24 && !store->quarantined(); ++i) {
    std::vector<NodeId> elements = NonRootElements(store->document().tree());
    NodeId anchor = elements[rng() % elements.size()];
    // Failures are allowed (that is the point); crashes and divergence are
    // not.
    switch (rng() % 4) {
      case 0: (void)store->InsertBefore(anchor, "ib"); break;
      case 1: (void)store->InsertAfter(anchor, "ia"); break;
      case 2: (void)store->AppendChild(anchor, "ac"); break;
      case 3: (void)store->Wrap(anchor, "wr"); break;
    }
    if (i % 5 == 4) (void)store->Checkpoint();
  }

  if (vfs.crashed()) {
    // Simulated process death: the only promise is that restart recovers a
    // consistent store.
    vfs.Reset();
    Result<DurableDocumentStore> reopened =
        DurableDocumentStore::Open(dir, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(reopened->Query("//speech").ok());
    RemoveTree(dir);
    return;
  }

  if (!store->quarantined()) {
    Status flushed = store->Flush();
    if (!flushed.ok()) {
      EXPECT_TRUE(store->quarantined());
    }
  }
  // Whether healthy or quarantined-and-rolled-back, the in-memory document
  // must now equal what a restart recovers: zero silent divergence.
  const std::string live_digest = StateDigest(store->document());
  vfs.Reset();
  Result<DurableDocumentStore> reopened =
      DurableDocumentStore::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateDigest(reopened->document()), live_digest);
  RemoveTree(dir);
}

TEST(DurabilityFaultMatrix, SeedSweep) {
  unsigned seed = 1;
  if (const char* env = std::getenv("PRIMELABEL_FAULT_SEED")) {
    seed = static_cast<unsigned>(std::atoi(env));
    if (seed == 0) seed = 1;
  }
  const FaultInjectingVfs::FaultKind kinds[] = {
      FaultInjectingVfs::FaultKind::kShortWrite,
      FaultInjectingVfs::FaultKind::kEio,
      FaultInjectingVfs::FaultKind::kEnospc,
      FaultInjectingVfs::FaultKind::kFsyncFail,
      FaultInjectingVfs::FaultKind::kCrash,
  };
  std::string dir = TempDirPath("fault-matrix");
  for (FaultInjectingVfs::FaultKind kind : kinds) {
    for (int k = 0; k < 10; ++k) {
      // Quadratic spread: early ordinals probe Create/first-op edges,
      // later ones land inside checkpoints and the workload tail.
      const std::uint64_t ordinal = seed + static_cast<std::uint64_t>(k) * k;
      RunFaultMatrixCell(kind, ordinal, seed * 100 + k, dir);
    }
  }
}

}  // namespace
}  // namespace primelabel
