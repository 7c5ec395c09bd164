// Service-layer suite: QueryService sessions reading epoch-pinned
// snapshots (with shared materialized views) while the single writer
// commits and checkpoints. The Concurrent* tests run under
// ThreadSanitizer via scripts/check.sh (tsan leg matches
// 'Parallel|Epoch|Concurrent|Service|Snapshot').

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/vfs.h"
#include "durability/wal.h"
#include "service/query_service.h"
#include "service/socket_server.h"
#include "service/view_cache.h"
#include "service/wire.h"
#include "view_test_support.h"
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
  options.seed = 17;
  return SerializeXml(GeneratePlay("served", options));
}

std::vector<NodeId> NonRootElements(const XmlTree& tree) {
  std::vector<NodeId> out;
  tree.Preorder([&](NodeId id, int) {
    if (id != tree.root() && tree.IsElement(id)) out.push_back(id);
  });
  return out;
}

QueryService MakeService(const std::string& dir,
                         QueryService::Options options = {},
                         Vfs* vfs = nullptr) {
  RemoveTree(dir);
  DurableDocumentStore::Options store_options;
  store_options.vfs = vfs;
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml(), store_options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return QueryService(std::move(store.value()), options);
}

// --- Acceptance: concurrent sessions + writer, shared views --------------

TEST(SnapshotServiceConcurrent, SessionsShareViewsWhileWriterCommits) {
  const std::string dir = TempDirPath("svc-concurrent");
  QueryService service = MakeService(dir);
  DurableDocumentStore& store = service.store();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    std::mt19937 rng(31);
    for (int i = 0; i < 48; ++i) {
      std::vector<NodeId> elements = NonRootElements(store.document().tree());
      ASSERT_TRUE(
          store.AppendChild(elements[rng() % elements.size()], "w").ok());
      if (i % 12 == 11) {
        ASSERT_TRUE(store.Checkpoint().ok());
      }
    }
    ASSERT_TRUE(store.Flush().ok());
    done.store(true);
  });

  std::vector<std::thread> sessions;
  for (int s = 0; s < 4; ++s) {
    sessions.emplace_back([&, s] {
      Result<Session> session = service.OpenSession();
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      // Keep reading through the storm, plus a couple of spins after the
      // writer quiesces so every session lands on the writer's final
      // point — those final opens all share one materialization.
      int post_done = 0;
      while (post_done < 3) {
        if (done.load()) ++post_done;
        Result<Snapshot> snap = session->OpenSnapshot();
        ASSERT_TRUE(snap.ok())
            << "session " << s << ": " << snap.status().ToString();
        reads.fetch_add(1);
        Result<std::vector<NodeId>> speeches = snap->Query("//speech");
        ASSERT_TRUE(speeches.ok()) << speeches.status().ToString();
        EXPECT_FALSE(speeches->empty());
        // Two independent opens of the quiesced point agree exactly —
        // whether the second ride the shared view or re-materializes
        // from disk, the answers must be bit-identical.
        if (post_done == 2) {
          Result<Snapshot> again = session->OpenSnapshot();
          ASSERT_TRUE(again.ok()) << again.status().ToString();
          reads.fetch_add(1);
          EXPECT_EQ(StateDigest(again->document()),
                    StateDigest(snap->document()));
          std::vector<NodeId> fresh = again->Query("//speech").value();
          EXPECT_EQ(fresh, *speeches);
        }
      }
      session->Close();
    });
  }

  writer.join();
  for (std::thread& t : sessions) t.join();

  // Views were shared: fewer materializations than snapshot opens (the
  // post-quiescence opens of all four sessions alone collapse onto one
  // materialization of the final point).
  const EpochViewCache::Stats stats = service.view_cache().stats();
  EXPECT_EQ(stats.hits + stats.misses, reads.load());
  EXPECT_LT(stats.misses, reads.load())
      << "every open re-materialized; view sharing is broken";
  EXPECT_GT(stats.hits, 0u);
}

TEST(SnapshotServiceConcurrent, ManySessionsOneQuiescentPointOneBuild) {
  const std::string dir = TempDirPath("svc-quiescent");
  QueryService service = MakeService(dir);

  // No writer: every session pins the same (epoch, bytes) point, so the
  // whole fleet costs exactly one materialization.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int s = 0; s < 6; ++s) {
    threads.emplace_back([&] {
      Result<Session> session = service.OpenSession();
      if (!session.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 5; ++i) {
        Result<Snapshot> snap = session->OpenSnapshot();
        if (!snap.ok() || !snap->Query("//scene").ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const EpochViewCache::Stats stats = service.view_cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 29u);
}

// --- Cache lifecycle ------------------------------------------------------

TEST(SnapshotServiceCache, StaleEpochViewsEvictedOnCheckpoint) {
  const std::string dir = TempDirPath("svc-evict-epoch");
  QueryService service = MakeService(dir);
  DurableDocumentStore& store = service.store();
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());

  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(service.view_cache().size(), 1u);

  // The checkpoint publishes a new epoch; the retirement listener sweeps
  // the epoch-0 view out of the cache even though the snapshot (and its
  // pin) are still alive — the shared_ptr keeps the view itself valid.
  std::vector<NodeId> scenes = store.Query("//scene").value();
  ASSERT_TRUE(store.AppendChild(scenes[0], "n").ok());
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(service.view_cache().size(), 0u);
  EXPECT_EQ(service.view_cache().stats().evictions, 1u);
  EXPECT_TRUE(snap->valid());
  EXPECT_TRUE(snap->Query("//scene").ok());
}

TEST(SnapshotServiceCache, LruBoundsIntraEpochChurn) {
  const std::string dir = TempDirPath("svc-evict-lru");
  QueryService::Options options;
  options.view_cache_capacity = 2;
  QueryService service = MakeService(dir, options);
  DurableDocumentStore& store = service.store();
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());

  // Each committed mutation advances journal_bytes, minting a fresh cache
  // key within the same epoch; capacity 2 caps the entries.
  std::vector<NodeId> scenes = store.Query("//scene").value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.AppendChild(scenes[0], "n").ok());
    ASSERT_TRUE(store.Flush().ok());
    Result<Snapshot> snap = session->OpenSnapshot();
    ASSERT_TRUE(snap.ok());
  }
  EXPECT_LE(service.view_cache().size(), 2u);
  EXPECT_EQ(service.view_cache().stats().misses, 5u);
  EXPECT_GE(service.view_cache().stats().evictions, 3u);
}

// --- Admission control ----------------------------------------------------

TEST(SnapshotServiceAdmission, SessionCapRejectsTyped) {
  const std::string dir = TempDirPath("svc-admit-sessions");
  QueryService::Options options;
  options.max_sessions = 2;
  QueryService service = MakeService(dir, options);

  Result<Session> a = service.OpenSession();
  Result<Session> b = service.OpenSession();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Result<Session> c = service.OpenSession();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);

  // Closing a session frees its slot.
  a->Close();
  Result<Session> d = service.OpenSession();
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(service.counters().sessions_rejected, 1u);
}

TEST(SnapshotServiceAdmission, QuotaRejectionLeavesSessionUsable) {
  const std::string dir = TempDirPath("svc-admit-quota");
  QueryService::Options options;
  options.session_request_quota = 3;
  QueryService service = MakeService(dir, options);
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());

  Result<Snapshot> snap = session->OpenSnapshot();       // request 1
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(session->Query(*snap, "//speech").ok());   // request 2
  ASSERT_TRUE(session->Query(*snap, "//scene").ok());    // request 3

  // Quota exhausted: typed rejection, not corruption.
  Result<std::vector<NodeId>> rejected = session->Query(*snap, "//line");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session->served(), 3u);
  EXPECT_EQ(session->rejected(), 1u);

  // The open snapshot is untouched by the rejection and still answers
  // directly (Snapshot::Query is not admission-gated).
  EXPECT_TRUE(snap->Query("//line").ok());

  // A fresh session against the same service works.
  Result<Session> fresh = service.OpenSession();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->OpenSnapshot().ok());
}

TEST(SnapshotServiceAdmission, BatchVerbsCountAgainstQuota) {
  const std::string dir = TempDirPath("svc-admit-batch");
  QueryService::Options options;
  options.session_request_quota = 2;
  QueryService service = MakeService(dir, options);
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  Result<Snapshot> snap = session->OpenSnapshot();  // request 1
  ASSERT_TRUE(snap.ok());

  std::vector<NodeId> speeches = snap->Query("//speech").value();
  std::vector<NodeId> acts = snap->Query("//act").value();
  ASSERT_FALSE(speeches.empty());
  ASSERT_FALSE(acts.empty());

  Result<std::vector<NodeId>> descendants =
      session->SelectDescendants(*snap, acts[0], speeches);  // request 2
  ASSERT_TRUE(descendants.ok());
  Result<std::vector<NodeId>> ancestors =
      session->SelectAncestors(*snap, speeches[0], acts);  // rejected
  ASSERT_FALSE(ancestors.ok());
  EXPECT_EQ(ancestors.status().code(), StatusCode::kResourceExhausted);
}

// --- Session batch entry points agree with the frozen oracle -------------

TEST(SnapshotServiceBatch, BatchAnswersMatchScalarOracle) {
  const std::string dir = TempDirPath("svc-batch");
  QueryService service = MakeService(dir);
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok());

  const std::vector<NodeId> acts = snap->Query("//act").value();
  const std::vector<NodeId> speeches = snap->Query("//speech").value();
  ASSERT_GE(acts.size(), 2u);
  ASSERT_GE(speeches.size(), 4u);

  std::vector<NodeId> ancestors, descendants;
  for (NodeId a : acts) {
    for (NodeId s : speeches) {
      ancestors.push_back(a);
      descendants.push_back(s);
    }
  }
  Result<std::vector<bool>> bits =
      session->IsAncestorBatch(*snap, ancestors, descendants);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < bits->size(); ++i) {
    EXPECT_EQ((*bits)[i],
              snap->oracle().IsAncestor(ancestors[i], descendants[i]));
  }

  Result<std::vector<NodeId>> selected =
      session->SelectDescendants(*snap, acts[0], speeches);
  ASSERT_TRUE(selected.ok());
  for (NodeId s : speeches) {
    const bool in = std::find(selected->begin(), selected->end(), s) !=
                    selected->end();
    EXPECT_EQ(in, snap->oracle().IsAncestor(acts[0], s));
  }

  Result<std::vector<NodeId>> up =
      session->SelectAncestors(*snap, speeches[0], acts);
  ASSERT_TRUE(up.ok());
  ASSERT_EQ(up->size(), 1u);
  EXPECT_TRUE(snap->oracle().IsAncestor((*up)[0], speeches[0]));
}

TEST(SnapshotServiceBatch, OutOfRangeIdsRejectedOnSealedAndLiveViews) {
  const std::string dir = TempDirPath("svc-id-range");
  MapCountingVfs vfs;
  QueryService service = MakeService(dir, {}, &vfs);
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  for (bool live : {false, true}) {
    if (live) {
      // A journal frame on top of the snapshot: the next view is an image
      // of the replayed document.
      const std::vector<NodeId> scenes =
          service.store().Query("//scene").value();
      ASSERT_FALSE(scenes.empty());
      ASSERT_TRUE(service.store().AppendChild(scenes[0], "speech").ok());
    }
    Result<Snapshot> snap = session->OpenSnapshot();
    ASSERT_TRUE(snap.ok());
    // Zero copy where the disk has the image: the sealed point maps its
    // snapshot, the journaled point maps nothing.
    EXPECT_EQ(vfs.TakeMapped(),
              live ? std::vector<std::string>()
                   : std::vector<std::string>{
                         DurableDocumentStore::SnapshotPath(dir, 0)});
    const NodeId limit = static_cast<NodeId>(snap->node_count());
    const std::vector<NodeId> acts = snap->Query("//act").value();
    ASSERT_FALSE(acts.empty());
    const NodeId good = acts[0];

    for (NodeId bad : {limit, NodeId{99999999}, NodeId{-1},
                       NodeId{-2000000000}}) {
      const std::string name = std::to_string(bad);
      auto expect_rejected = [&](const Status& status, const char* verb) {
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
            << verb << ' ' << bad << (live ? " live" : " sealed");
        EXPECT_NE(status.message().find(name), std::string::npos)
            << status.message();
      };
      expect_rejected(
          session->IsAncestorBatch(*snap, {good}, {bad}).status(), "ISANC");
      expect_rejected(
          session->IsAncestorBatch(*snap, {bad}, {good}).status(), "ISANC");
      expect_rejected(
          session->SelectDescendants(*snap, good, {good, bad}).status(),
          "DESC");
      expect_rejected(
          session->SelectDescendants(*snap, bad, {good}).status(), "DESC");
      expect_rejected(
          session->SelectAncestors(*snap, good, {bad}).status(), "ANC");
      expect_rejected(
          session->SelectAncestors(*snap, bad, {good}).status(), "ANC");
    }
    // The largest in-range id is still served, and the session stays
    // usable after the rejections.
    Result<std::vector<bool>> edge =
        session->IsAncestorBatch(*snap, {0}, {limit - 1});
    ASSERT_TRUE(edge.ok()) << edge.status().ToString();
    Result<std::vector<NodeId>> up =
        session->SelectAncestors(*snap, acts[0], {0, limit - 1});
    ASSERT_TRUE(up.ok()) << up.status().ToString();
  }
}

TEST(SnapshotServiceBatch, LiveViewIdsAreExactlyTheAttachedNodes) {
  const std::string dir = TempDirPath("svc-live-ids");
  QueryService service = MakeService(dir);
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  // A Delete leaves a detached slot in the writer's tree, then an insert
  // adds a node: the live point's journal holds both.
  DurableDocumentStore& store = service.store();
  const std::vector<NodeId> speeches = store.Query("//speech").value();
  ASSERT_GE(speeches.size(), 2u);
  ASSERT_TRUE(store.Delete(speeches[0]).ok());
  const std::vector<NodeId> scenes = store.Query("//scene").value();
  ASSERT_FALSE(scenes.empty());
  ASSERT_TRUE(store.InsertBefore(scenes.back(), "scene").ok());
  ASSERT_LT(store.document().tree().node_count(),
            store.document().tree().arena_size());

  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_GT(snap->journal_bytes(), kWalHeaderBytes);
  const std::size_t n = snap->node_count();
  ASSERT_EQ(n, store.document().tree().node_count());
  const XmlTree& tree = snap->document().tree();
  ASSERT_EQ(tree.node_count(), n);

  // The id node_count is one past the end, on every batch verb.
  const NodeId past = static_cast<NodeId>(n);
  EXPECT_EQ(session->IsAncestorBatch(*snap, {0}, {past}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->SelectDescendants(*snap, 0, {past}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->SelectAncestors(*snap, past, {0}).status().code(),
            StatusCode::kInvalidArgument);

  // Every id in range is an attached node, and the batch verbs answer for
  // it exactly what the parent chains of the view's document say.
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  std::vector<NodeId> ancestors, descendants;
  for (NodeId a : all) {
    for (NodeId d : all) {
      ancestors.push_back(a);
      descendants.push_back(d);
    }
  }
  Result<std::vector<bool>> bits =
      session->IsAncestorBatch(*snap, ancestors, descendants);
  ASSERT_TRUE(bits.ok()) << bits.status().ToString();
  for (std::size_t i = 0; i < bits->size(); ++i) {
    EXPECT_EQ((*bits)[i], OnParentChain(tree, ancestors[i], descendants[i]))
        << "ISANC " << ancestors[i] << ' ' << descendants[i];
  }
  for (NodeId anchor : all) {
    std::vector<NodeId> below, above;
    for (NodeId c : all) {
      if (OnParentChain(tree, anchor, c)) below.push_back(c);
      if (OnParentChain(tree, c, anchor)) above.push_back(c);
    }
    Result<std::vector<NodeId>> desc =
        session->SelectDescendants(*snap, anchor, all);
    ASSERT_TRUE(desc.ok()) << desc.status().ToString();
    EXPECT_EQ(desc.value(), below) << "DESC " << anchor;
    Result<std::vector<NodeId>> anc =
        session->SelectAncestors(*snap, anchor, all);
    ASSERT_TRUE(anc.ok()) << anc.status().ToString();
    EXPECT_EQ(anc.value(), above) << "ANC " << anchor;
  }
}

// --- Wire protocol over a real socket ------------------------------------

TEST(SnapshotServiceWire, RequestLineBatteryAndErrors) {
  const std::string dir = TempDirPath("svc-wire");
  QueryService service = MakeService(dir);
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  std::optional<Snapshot> snapshot;
  bool done = false;

  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot, "PING", &done),
            "OK PONG");
  // Structural verbs before SNAP are typed errors.
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot, "XPATH //a",
                               &done)
                .rfind("ERR InvalidArgument", 0),
            0u);
  std::string snap_reply =
      ExecuteRequestLine(service, *session, &snapshot, "SNAP", &done);
  EXPECT_EQ(snap_reply.rfind("OK ", 0), 0u);
  ASSERT_TRUE(snapshot.has_value());

  const std::string xpath_reply = ExecuteRequestLine(
      service, *session, &snapshot, "XPATH //speech", &done);
  EXPECT_EQ(xpath_reply.rfind("OK ", 0), 0u);
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot, "BOGUS", &done)
                .rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot, "ISANC 2 1",
                               &done)
                .rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_FALSE(done);
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot, "QUIT", &done),
            "OK BYE");
  EXPECT_TRUE(done);
}

TEST(SnapshotServiceWire, SocketServerServesConcurrentClients) {
  const std::string dir = TempDirPath("svc-socket");
  const std::string socket_path = TempDirPath("svc-socket.sock");
  QueryService service = MakeService(dir);
  SocketServer server(&service);
  ASSERT_TRUE(server.Start(socket_path).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      SocketClient client;
      if (!client.Connect(socket_path).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (const char* request :
           {"PING", "SNAP", "XPATH //speech", "STATS", "QUIT"}) {
        Result<std::string> reply = client.Request(request);
        if (!reply.ok() || reply->rfind("OK", 0) != 0) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
  EXPECT_FALSE(fs::exists(socket_path));
}

TEST(SnapshotServiceWire, SessionCapClosesExtraConnections) {
  const std::string dir = TempDirPath("svc-socket-cap");
  const std::string socket_path = TempDirPath("svc-socket-cap.sock");
  QueryService::Options options;
  options.max_sessions = 1;
  QueryService service = MakeService(dir, options);
  SocketServer server(&service);
  ASSERT_TRUE(server.Start(socket_path).ok());

  SocketClient first;
  ASSERT_TRUE(first.Connect(socket_path).ok());
  ASSERT_TRUE(first.Request("PING").ok());

  SocketClient second;
  ASSERT_TRUE(second.Connect(socket_path).ok());
  Result<std::string> reply = second.Request("PING");
  // The rejected connection got one ERR line (read before close) or was
  // closed outright, depending on write/read interleaving.
  if (reply.ok()) {
    EXPECT_EQ(reply->rfind("ERR ResourceExhausted", 0), 0u);
  }

  // The admitted connection is unaffected.
  Result<std::string> still = first.Request("SNAP");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->rfind("OK ", 0), 0u);
}

}  // namespace
}  // namespace primelabel
