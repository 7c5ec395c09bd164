// Robustness suite for the socket service layer: request deadlines and
// chunked batch cancellation, bounded backpressure (connection shed,
// oversize lines, idle reaping), graceful drain under a writer storm,
// client-side timeouts/retries, a deterministic socket fault-injection
// sweep through FaultInjectingTransport, and a malformed-wire fuzz
// battery. The ServiceDrain* tests run under ThreadSanitizer via
// scripts/check.sh (tsan leg regex includes 'Chaos|Drain|Deadline').
//
// Like tests/durability_test.cc, the fault sweep honors
// PRIMELABEL_FAULT_SEED so check.sh can walk fault ordinals across runs.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/query_service.h"
#include "service/socket_server.h"
#include "service/transport.h"
#include "service/wire.h"
#include "util/deadline.h"
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

std::string SmallPlayXml() {
  PlayOptions options;
  options.acts = 2;
  options.scenes_per_act = 2;
  options.min_speeches_per_scene = 2;
  options.max_speeches_per_scene = 3;
  options.seed = 17;
  return SerializeXml(GeneratePlay("chaos", options));
}

QueryService MakeService(const std::string& dir,
                         QueryService::Options options = {}) {
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, SmallPlayXml());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return QueryService(std::move(store.value()), options);
}

std::vector<NodeId> NonRootElements(const XmlTree& tree) {
  std::vector<NodeId> out;
  tree.Preorder([&](NodeId id, int) {
    if (id != tree.root() && tree.IsElement(id)) out.push_back(id);
  });
  return out;
}

/// Builds `ISANC <k> <a1> <d1> ...` over every (parent-of-first, element)
/// pairing — big enough to span several deadline-check chunks.
std::string BigIsancLine(const XmlTree& tree, std::size_t pairs) {
  const std::vector<NodeId> elements = NonRootElements(tree);
  std::ostringstream out;
  out << "ISANC " << pairs;
  for (std::size_t i = 0; i < pairs; ++i) {
    out << ' ' << tree.root() << ' ' << elements[i % elements.size()];
  }
  return out.str();
}

int SweepSeed() {
  const char* env = std::getenv("PRIMELABEL_FAULT_SEED");
  return env != nullptr ? std::atoi(env) : 1;
}

/// Raw-socket client for sending bytes the framed SocketClient cannot:
/// garbage, NULs, torn writes, half requests.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() { Close(); }

  bool ok() const { return fd_ >= 0; }

  void Send(const void* data, std::size_t len) {
    if (fd_ < 0) return;
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
      const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
      if (n <= 0) return;  // Peer closed on us mid-send — that's fine here.
      p += n;
      len -= static_cast<std::size_t>(n);
    }
  }
  void Send(const std::string& data) { Send(data.data(), data.size()); }

  /// Reads whatever the server sends until EOF or `window_ms` of silence.
  std::string DrainReplies(int window_ms) {
    std::string out;
    char buf[4096];
    while (fd_ >= 0) {
      pollfd p{};
      p.fd = fd_;
      p.events = POLLIN;
      if (::poll(&p, 1, window_ms) <= 0) break;
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

// --- Deadlines -----------------------------------------------------------

TEST(ServiceDeadlineWire, PrefixParsingAndPreExpiredRequests) {
  const std::string dir = TempDirPath("svc-deadline-wire");
  QueryService service = MakeService(dir);
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  std::optional<Snapshot> snapshot;
  bool done = false;
  ServerGauges gauges;
  WireContext context;
  context.gauges = &gauges;

  // Malformed budgets are rejected without running anything.
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot, "DEADLINE",
                               &done, &context)
                .rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot,
                               "DEADLINE -5 PING", &done, &context)
                .rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot,
                               "DEADLINE abc PING", &done, &context)
                .rfind("ERR InvalidArgument", 0),
            0u);
  // A generous budget changes nothing.
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot,
                               "DEADLINE 60000 PING", &done, &context),
            "OK PONG");
  // A zero budget is the cheapest cancellation, and it is typed.
  const std::string expired = ExecuteRequestLine(
      service, *session, &snapshot, "DEADLINE 0 SNAP", &done, &context);
  EXPECT_EQ(expired.rfind("ERR DeadlineExceeded", 0), 0u) << expired;
  EXPECT_EQ(gauges.deadline_exceeded.load(), 1u);
  // QUIT is exempt: a client can always leave, budget or none.
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot,
                               "DEADLINE 0 QUIT", &done, &context),
            "OK BYE");
  EXPECT_TRUE(done);
  // The session is not poisoned by a cancelled request.
  done = false;
  EXPECT_EQ(ExecuteRequestLine(service, *session, &snapshot, "SNAP", &done,
                               &context)
                .rfind("OK ", 0),
            0u);
}

TEST(ServiceDeadlineBatch, ChunkedCancellationAndEquivalence) {
  const std::string dir = TempDirPath("svc-deadline-batch");
  QueryService service = MakeService(dir);
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok());

  const XmlTree& tree = snap->document().tree();
  const std::vector<NodeId> elements = NonRootElements(tree);
  // Span several kDeadlineCheckChunk chunks.
  const std::size_t n = 5000;
  std::vector<NodeId> ancestors(n, tree.root());
  std::vector<NodeId> descendants(n);
  std::vector<NodeId> candidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    descendants[i] = elements[i % elements.size()];
    candidates[i] = elements[(i * 7) % elements.size()];
  }

  // An already-expired deadline cancels before the first chunk, with a
  // progress-bearing message, and discards partial results.
  Result<std::vector<bool>> cancelled = session->IsAncestorBatch(
      snap.value(), ancestors, descendants, Deadline::AfterMs(0));
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(cancelled.status().message().find("0 of 5000"),
            std::string::npos)
      << cancelled.status().ToString();
  Result<std::vector<NodeId>> cancelled_desc = session->SelectDescendants(
      snap.value(), tree.root(), candidates, Deadline::AfterMs(0));
  ASSERT_FALSE(cancelled_desc.ok());
  EXPECT_EQ(cancelled_desc.status().code(), StatusCode::kDeadlineExceeded);
  Result<std::vector<NodeId>> cancelled_anc = session->SelectAncestors(
      snap.value(), descendants[0], candidates, Deadline::AfterMs(0));
  ASSERT_FALSE(cancelled_anc.ok());
  EXPECT_EQ(cancelled_anc.status().code(), StatusCode::kDeadlineExceeded);

  // Chunked execution under a live deadline is bit-identical to the
  // unbounded path (the oracle appends matches in candidate order).
  Result<std::vector<bool>> unbounded =
      session->IsAncestorBatch(snap.value(), ancestors, descendants);
  Result<std::vector<bool>> bounded = session->IsAncestorBatch(
      snap.value(), ancestors, descendants, Deadline::AfterMs(60000));
  ASSERT_TRUE(unbounded.ok());
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(unbounded.value(), bounded.value());
  Result<std::vector<NodeId>> desc_unbounded =
      session->SelectDescendants(snap.value(), tree.root(), candidates);
  Result<std::vector<NodeId>> desc_bounded = session->SelectDescendants(
      snap.value(), tree.root(), candidates, Deadline::AfterMs(60000));
  ASSERT_TRUE(desc_unbounded.ok());
  ASSERT_TRUE(desc_bounded.ok());
  EXPECT_EQ(desc_unbounded.value(), desc_bounded.value());

  // The session survives every cancellation above.
  EXPECT_TRUE(session->OpenSnapshot().ok());
}

TEST(ServiceDeadlineClient, StalledServerYieldsTimeoutNotHang) {
  // A listener that never accepts: the kernel completes the unix-socket
  // handshake into the backlog, so connect and write succeed but no reply
  // ever comes — exactly the wedged-server shape that used to hang
  // Request forever.
  const std::string path = TempDirPath("svc-stalled.sock");
  ::unlink(path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);

  SocketClient::Options options;
  options.io_timeout_ms = 150;
  options.max_attempts = 1;
  SocketClient client(options);
  ASSERT_TRUE(client.Connect(path).ok());
  const auto start = std::chrono::steady_clock::now();
  Result<std::string> reply = client.Request("PING");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  EXPECT_LT(elapsed.count(), 5000) << "timeout did not bound the wait";

  // A per-request deadline tighter than io_timeout also wins.
  SocketClient::Options generous;
  generous.io_timeout_ms = 60000;
  generous.max_attempts = 1;
  SocketClient bounded(generous);
  ASSERT_TRUE(bounded.Connect(path).ok());
  Result<std::string> tight =
      bounded.Request("PING", Deadline::AfterMs(100));
  ASSERT_FALSE(tight.ok());
  EXPECT_EQ(tight.status().code(), StatusCode::kDeadlineExceeded);

  ::close(listen_fd);
  ::unlink(path.c_str());

  // With nothing listening at all, connect fails fast and typed instead
  // of hanging.
  SocketClient::Options refused;
  refused.max_attempts = 1;
  refused.connect_timeout_ms = 200;
  SocketClient dead(refused);
  Status connect = dead.Connect(path);
  ASSERT_FALSE(connect.ok());
  EXPECT_EQ(connect.code(), StatusCode::kUnavailable)
      << connect.ToString();
}

// --- Backpressure --------------------------------------------------------

TEST(ServiceChaosBackpressure, ShedsBeyondConnectionCap) {
  const std::string dir = TempDirPath("svc-shed");
  const std::string socket_path = TempDirPath("svc-shed.sock");
  QueryService service = MakeService(dir);
  SocketServer::Options options;
  options.max_connections = 1;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(socket_path).ok());

  SocketClient::Options one_shot;
  one_shot.max_attempts = 1;
  SocketClient first(one_shot);
  ASSERT_TRUE(first.Connect(socket_path).ok());
  ASSERT_TRUE(first.Request("PING").ok());

  // The second connection is shed at accept with one typed line (or the
  // close wins the race and the request fails typed — never a hang).
  SocketClient second(one_shot);
  ASSERT_TRUE(second.Connect(socket_path).ok());
  Result<std::string> reply = second.Request("PING");
  if (reply.ok()) {
    EXPECT_EQ(reply->rfind("ERR ResourceExhausted", 0), 0u) << *reply;
  }
  EXPECT_GE(server.stats().shed, 1u);

  // The admitted connection is untouched, and its STATS line reports the
  // shed through the wire.
  Result<std::string> stats = first.Request("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find(" SHED 1"), std::string::npos) << *stats;
  first.Close();
  server.Stop();
}

TEST(ServiceChaosBackpressure, OversizeLineAnsweredAndClosed) {
  const std::string dir = TempDirPath("svc-oversize");
  const std::string socket_path = TempDirPath("svc-oversize.sock");
  QueryService service = MakeService(dir);
  SocketServer::Options options;
  options.max_line_bytes = 1024;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(socket_path).ok());

  RawConnection conn(socket_path);
  ASSERT_TRUE(conn.ok());
  conn.Send(std::string(4096, 'A'));  // No newline: pure buffer growth.
  const std::string replies = conn.DrainReplies(2000);
  EXPECT_NE(replies.find("ERR InvalidArgument"), std::string::npos)
      << replies;
  EXPECT_GE(server.stats().oversize_rejected, 1u);

  // The server is fine; a well-formed client works.
  SocketClient client;
  ASSERT_TRUE(client.Connect(socket_path).ok());
  Result<std::string> pong = client.Request("PING");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "OK PONG");
  client.Close();
  server.Stop();
}

TEST(ServiceChaosBackpressure, IdleConnectionsAreReaped) {
  const std::string dir = TempDirPath("svc-idle");
  const std::string socket_path = TempDirPath("svc-idle.sock");
  QueryService service = MakeService(dir);
  SocketServer::Options options;
  options.idle_timeout_ms = 100;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(socket_path).ok());

  SocketClient::Options one_shot;
  one_shot.max_attempts = 1;
  SocketClient client(one_shot);
  ASSERT_TRUE(client.Connect(socket_path).ok());
  ASSERT_TRUE(client.Request("PING").ok());

  // Go quiet past the idle budget; the server closes our side.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(5000);
  while (server.stats().idle_reaped == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().idle_reaped, 1u);
  Result<std::string> reply = client.Request("PING");
  EXPECT_FALSE(reply.ok());  // Reaped: no retry (max_attempts = 1).
  server.Stop();
}

// --- Fault injection -----------------------------------------------------

TEST(ServiceChaosInjector, FaultsFireAtOrdinalsAndDisarm) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FaultInjectingTransport fi(DefaultTransport());

  // A read-only fault armed at op 1 waits for the first *eligible* op:
  // the write at op 1 passes through untouched, the read at op 2 fires.
  FaultInjectingTransport::Fault fault;
  fault.at = 1;
  fault.kind = FaultInjectingTransport::FaultKind::kShortRead;
  fi.Arm(fault);
  const char payload[] = "abcdef";
  IoResult wrote = fi.Write(fds[0], payload, sizeof payload - 1, 1000);
  EXPECT_EQ(wrote.event, IoEvent::kOk);
  EXPECT_EQ(wrote.bytes, sizeof payload - 1);
  char buf[16];
  IoResult read = fi.Read(fds[1], buf, sizeof buf, 1000);
  EXPECT_EQ(read.event, IoEvent::kOk);
  EXPECT_EQ(read.bytes, 1u) << "short-read fault did not cap the read";
  EXPECT_EQ(fi.ops(), 2u);
  EXPECT_EQ(fi.faults_fired(), 1u);
  // Transient: the rest of the payload arrives whole.
  read = fi.Read(fds[1], buf, sizeof buf, 1000);
  EXPECT_EQ(read.event, IoEvent::kOk);
  EXPECT_EQ(read.bytes, sizeof payload - 2);

  // A stall under a poll timeout reports kTimeout without sleeping.
  fi.Reset();
  fault.at = 1;
  fault.kind = FaultInjectingTransport::FaultKind::kStall;
  fi.Arm(fault);
  const auto start = std::chrono::steady_clock::now();
  read = fi.Read(fds[1], buf, sizeof buf, 5000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(read.event, IoEvent::kTimeout);
  EXPECT_LT(elapsed.count(), 1000) << "stall fault slept for real";

  // A reset fault tears the connection down for both sides.
  fi.Reset();
  fault.kind = FaultInjectingTransport::FaultKind::kReset;
  fi.Arm(fault);
  wrote = fi.Write(fds[0], payload, sizeof payload - 1, 1000);
  EXPECT_EQ(wrote.event, IoEvent::kReset);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServiceChaosSweep, SeededFaultSweepNeverWedgesTheServer) {
  const std::string dir = TempDirPath("svc-sweep");
  const std::string socket_path = TempDirPath("svc-sweep.sock");
  QueryService service = MakeService(dir);

  FaultInjectingTransport injected(DefaultTransport());
  SocketServer::Options options;
  options.transport = &injected;
  options.write_timeout_ms = 300;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(socket_path).ok());

  const int seed = SweepSeed();
  using FaultKind = FaultInjectingTransport::FaultKind;
  const FaultKind kinds[] = {FaultKind::kShortRead, FaultKind::kShortWrite,
                             FaultKind::kStall, FaultKind::kReset};

  // Clients retry reset/unavailable, so most requests heal; the
  // invariants are the acceptance bar: every request ends in a reply or
  // a typed error (never a crash or a wedge), only the injected
  // connection is affected, and after clearing the fault a fresh clean
  // request succeeds.
  SocketClient::Options resilient;
  resilient.io_timeout_ms = 2000;
  resilient.max_attempts = 3;
  resilient.base_backoff_ms = 5;
  for (const FaultKind kind : kinds) {
    for (int k = 0; k < 10; ++k) {
      const std::uint64_t ordinal =
          static_cast<std::uint64_t>(seed + k * k);
      injected.Reset();
      FaultInjectingTransport::Fault fault;
      fault.at = ordinal;
      fault.kind = kind;
      fault.transient = true;
      injected.Arm(fault);

      SocketClient client(resilient);
      ASSERT_TRUE(client.Connect(socket_path).ok());
      for (const char* request : {"PING", "SNAP", "XPATH //speech"}) {
        Result<std::string> reply = client.Request(request);
        if (!reply.ok()) {
          const StatusCode code = reply.status().code();
          ASSERT_TRUE(code == StatusCode::kUnavailable ||
                      code == StatusCode::kDeadlineExceeded ||
                      code == StatusCode::kIoError)
              << "untyped failure under " << static_cast<int>(kind)
              << " at ordinal " << ordinal << ": "
              << reply.status().ToString();
        }
      }
      client.Close();

      // Clean-slate probe: the server must still serve perfectly.
      injected.Reset();
      SocketClient probe(resilient);
      ASSERT_TRUE(probe.Connect(socket_path).ok())
          << "server wedged after " << static_cast<int>(kind)
          << " at ordinal " << ordinal;
      Result<std::string> pong = probe.Request("PING");
      ASSERT_TRUE(pong.ok()) << pong.status().ToString();
      EXPECT_EQ(*pong, "OK PONG");
      Result<std::string> snap = probe.Request("SNAP");
      ASSERT_TRUE(snap.ok());
      EXPECT_EQ(snap->rfind("OK ", 0), 0u) << *snap;
      probe.Close();
    }
  }
  server.Stop();
  EXPECT_TRUE(server.stats().accepted >= 80u)
      << "sweep exercised fewer connections than expected";
}

TEST(ServiceChaosFuzz, MalformedWireBatteryNeverKillsTheServer) {
  const std::string dir = TempDirPath("svc-fuzz");
  const std::string socket_path = TempDirPath("svc-fuzz.sock");
  QueryService service = MakeService(dir);
  SocketServer::Options options;
  options.max_line_bytes = 4096;
  options.write_timeout_ms = 500;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(socket_path).ok());

  // 1. Deterministic random bytes, newlines included, several rounds.
  std::mt19937 rng(20260807);
  for (int round = 0; round < 8; ++round) {
    RawConnection conn(socket_path);
    ASSERT_TRUE(conn.ok());
    std::string noise(512, '\0');
    for (char& c : noise) c = static_cast<char>(rng() & 0xff);
    conn.Send(noise);
    conn.Send("\n");
    conn.DrainReplies(50);
  }

  // 2. Embedded NULs inside otherwise plausible verbs.
  {
    RawConnection conn(socket_path);
    ASSERT_TRUE(conn.ok());
    const char nul_ping[] = "PI\0NG\nXPATH \0//speech\nISANC 1 \0 2\n";
    conn.Send(nul_ping, sizeof nul_ping - 1);
    const std::string replies = conn.DrainReplies(200);
    EXPECT_NE(replies.find("ERR"), std::string::npos) << replies;
  }

  // 3. Oversized line: one typed rejection, connection closed, bounded
  //    memory.
  {
    RawConnection conn(socket_path);
    ASSERT_TRUE(conn.ok());
    conn.Send(std::string(32 * 1024, 'Z'));
    const std::string replies = conn.DrainReplies(2000);
    EXPECT_NE(replies.find("ERR InvalidArgument"), std::string::npos)
        << replies;
  }

  // 4. Torn multi-line writes: two requests delivered across three
  //    segments with pauses — reassembly must yield exactly two replies.
  {
    RawConnection conn(socket_path);
    ASSERT_TRUE(conn.ok());
    conn.Send("SN");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    conn.Send("AP\nPI");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    conn.Send("NG\n");
    const std::string replies = conn.DrainReplies(500);
    EXPECT_NE(replies.find("OK "), std::string::npos) << replies;
    EXPECT_NE(replies.find("OK PONG"), std::string::npos) << replies;
  }

  // 5. Mid-request disconnect: half a line, then gone.
  {
    RawConnection conn(socket_path);
    ASSERT_TRUE(conn.ok());
    conn.Send("ISANC 3 1 2");
    conn.Close();
  }

  // 6. Hostile sizes on one connection: id-block counts far beyond what
  //    the line holds, and a position that overflows int. Each is a typed
  //    error, and the connection keeps serving.
  {
    RawConnection conn(socket_path);
    ASSERT_TRUE(conn.ok());
    conn.Send(
        "SNAP\n"
        "ISANC 4000000000000000\n"
        "DESC 1 4000000000000000\n"
        "ANC 1 4000000000000000\n"
        "XPATH //act[99999999999]\n"
        "PING\n");
    const std::string replies = conn.DrainReplies(500);
    std::vector<std::string> lines;
    std::istringstream split(replies);
    for (std::string line; std::getline(split, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 6u) << replies;
    EXPECT_EQ(lines[0].rfind("OK ", 0), 0u) << lines[0];
    for (std::size_t i = 1; i <= 3; ++i) {
      EXPECT_EQ(lines[i].rfind("ERR InvalidArgument", 0), 0u) << lines[i];
    }
    EXPECT_EQ(lines[4].rfind("ERR ParseError", 0), 0u) << lines[4];
    EXPECT_EQ(lines[5], "OK PONG");
  }

  // 7. Node ids outside the snapshot's id range, on a sealed view and then
  //    on a live view with journal frames: each is a typed error naming
  //    the id (the oracle never sees it), and the connection keeps
  //    serving.
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      std::vector<NodeId> scenes = service.store().Query("//scene").value();
      ASSERT_FALSE(scenes.empty());
      ASSERT_TRUE(service.store().AppendChild(scenes[0], "speech").ok());
    }
    const char* bad_lines[] = {"DESC 0 1 99999999", "ISANC 1 0 99999999",
                               "ANC 99999999 1 0", "ANC 3 1 -2000000000",
                               "DESC -7 1 3"};
    const char* bad_ids[] = {"99999999", "99999999", "99999999",
                             "-2000000000", "-7"};
    std::string requests = "SNAP\nSTATS\n";
    for (const char* line : bad_lines) {
      requests += line;
      requests += "\nPING\n";
    }
    RawConnection conn(socket_path);
    ASSERT_TRUE(conn.ok());
    conn.Send(requests);
    const std::string replies = conn.DrainReplies(500);
    std::vector<std::string> lines;
    std::istringstream split(replies);
    for (std::string line; std::getline(split, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2 + 2 * std::size(bad_lines)) << replies;
    EXPECT_EQ(lines[0].rfind("OK ", 0), 0u) << lines[0];
    EXPECT_EQ(lines[1].rfind("OK SERVED ", 0), 0u) << lines[1];
    for (std::size_t i = 0; i < std::size(bad_lines); ++i) {
      const std::string& error = lines[2 + 2 * i];
      EXPECT_EQ(error.rfind("ERR InvalidArgument", 0), 0u)
          << bad_lines[i] << " -> " << error;
      EXPECT_NE(error.find(bad_ids[i]), std::string::npos) << error;
      EXPECT_EQ(lines[3 + 2 * i], "OK PONG") << bad_lines[i];
    }
  }

  // After the whole battery the server serves a pristine session.
  SocketClient client;
  ASSERT_TRUE(client.Connect(socket_path).ok());
  for (const char* request : {"PING", "SNAP", "XPATH //speech", "STATS"}) {
    Result<std::string> reply = client.Request(request);
    ASSERT_TRUE(reply.ok()) << request << ": " << reply.status().ToString();
    EXPECT_EQ(reply->rfind("OK", 0), 0u) << request << " -> " << *reply;
  }
  client.Close();
  server.Stop();
}

// --- Graceful drain ------------------------------------------------------

TEST(ServiceDrainIdle, DrainWithIdleClientsCompletesCleanly) {
  const std::string dir = TempDirPath("svc-drain-idle");
  const std::string socket_path = TempDirPath("svc-drain-idle.sock");
  QueryService service = MakeService(dir);
  SocketServer server(&service);
  ASSERT_TRUE(server.Start(socket_path).ok());

  std::vector<std::unique_ptr<SocketClient>> idlers;
  for (int i = 0; i < 3; ++i) {
    auto client = std::make_unique<SocketClient>();
    ASSERT_TRUE(client->Connect(socket_path).ok());
    ASSERT_TRUE(client->Request("PING").ok());
    idlers.push_back(std::move(client));
  }
  EXPECT_EQ(server.live_connections(), 3u);

  // Idle connections notice the draining flag within a poll slice; no
  // force-closes needed.
  Status drained = server.Drain(std::chrono::milliseconds(3000));
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_EQ(server.stats().forced_closes, 0u);
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(fs::exists(socket_path));
  // Drain is terminal; Stop afterwards is a harmless no-op.
  server.Stop();
}

TEST(ServiceDrainStorm, DrainCompletesInflightUnderWriterStorm) {
  const std::string dir = TempDirPath("svc-drain-storm");
  const std::string socket_path = TempDirPath("svc-drain-storm.sock");
  QueryService service = MakeService(dir);
  DurableDocumentStore& store = service.store();
  SocketServer server(&service);
  ASSERT_TRUE(server.Start(socket_path).ok());

  // Built from the initial tree, before the writer starts: the live tree
  // may only be read from the writer thread once it is running. Appends
  // never invalidate existing node ids, so the line stays well-formed.
  const std::string big_isanc = BigIsancLine(store.document().tree(), 3000);

  // Writer storm: structural appends + periodic checkpoints while the
  // readers hammer the socket front end.
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    std::mt19937 rng(41);
    int i = 0;
    while (!stop_writer.load()) {
      std::vector<NodeId> elements = NonRootElements(store.document().tree());
      ASSERT_TRUE(
          store.AppendChild(elements[rng() % elements.size()], "w").ok());
      if (++i % 16 == 0) {
        ASSERT_TRUE(store.Checkpoint().ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<std::uint64_t> served{0};
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int c = 0; c < 3; ++c) {
    readers.emplace_back([&] {
      SocketClient::Options one_shot;
      one_shot.max_attempts = 1;
      one_shot.io_timeout_ms = 5000;
      SocketClient client(one_shot);
      if (!client.Connect(socket_path).ok()) return;
      if (!client.Request("SNAP").ok()) return;
      while (!stop_readers.load()) {
        Result<std::string> reply = client.Request("XPATH //speech");
        if (!reply.ok()) return;  // Drain closed us between requests.
        if (reply->rfind("OK", 0) == 0) served.fetch_add(1);
      }
    });
  }

  // Let the storm develop, then prove an oversized batch under a spent
  // budget cancels instead of stalling the drain window.
  while (served.load() < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    SocketClient doomed;
    ASSERT_TRUE(doomed.Connect(socket_path).ok());
    ASSERT_TRUE(doomed.Request("SNAP").ok());
    Result<std::string> reply = doomed.Request("DEADLINE 0 " + big_isanc);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->rfind("ERR DeadlineExceeded", 0), 0u) << *reply;
    doomed.Close();
  }

  // Drain while readers are still in flight: everything currently
  // executing finishes and is answered; nothing new is admitted.
  Status drained = server.Drain(std::chrono::milliseconds(5000));
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_FALSE(server.running());

  stop_readers.store(true);
  for (std::thread& t : readers) t.join();
  stop_writer.store(true);
  writer.join();

  EXPECT_GE(served.load(), 20u);
  const SocketServer::Stats stats = server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.forced_closes, 0u)
      << "drain had to force-close in-flight readers";
  EXPECT_GE(stats.deadline_exceeded, 1u);
}

}  // namespace
}  // namespace primelabel
