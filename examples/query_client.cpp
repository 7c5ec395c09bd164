// Command-line client for query_server: sends protocol lines over the
// Unix-domain socket and prints replies.
//
// Usage:
//   query_client <socket> <request line...>
//       One request, reply on stdout, exit 0 iff the reply is OK.
//   query_client <socket> --smoke
//       The standing smoke battery used by scripts/check.sh: PING, SNAP,
//       a handful of XPATH/ISANC/DESC/ANC requests, EXPLAIN, repeated
//       queries asserting the plan/result-cache counters in STATS, QUIT —
//       exit 0 only if every reply is OK and every assertion holds.
//   query_client <socket> --explain <xpath>
//       SNAP, then EXPLAIN the query and print the operator tree.
//   query_client <socket> --plansmoke
//       Against a live-writer server: SNAP, run a query (seeding the
//       result cache at the pinned point), then poll STATS until a
//       checkpoint publish invalidates it (RESINVALIDATIONS > 0).

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/socket_server.h"

using namespace primelabel;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: query_client <socket> <request line...>\n"
               "       query_client <socket> --smoke\n"
               "       query_client <socket> --explain <xpath>\n"
               "       query_client <socket> --plansmoke\n");
  return 2;
}

bool RunOne(SocketClient& client, const std::string& line, bool print) {
  Result<std::string> reply = client.Request(line);
  if (!reply.ok()) {
    std::fprintf(stderr, "%s\n", reply.status().ToString().c_str());
    return false;
  }
  if (print) std::printf("%s\n", reply->c_str());
  return reply->rfind("OK", 0) == 0;
}

/// Parses "OK <k> <id...>" into ids; empty on ERR.
std::vector<long> ParseIds(const std::string& reply) {
  std::istringstream in(reply);
  std::string ok;
  std::size_t k = 0;
  std::vector<long> ids;
  if (!(in >> ok >> k) || ok != "OK") return ids;
  long id;
  while (in >> id) ids.push_back(id);
  return ids;
}

int Smoke(SocketClient& client) {
  if (!RunOne(client, "PING", true)) return 1;

  // The DEADLINE prefix: a generous budget changes nothing, a spent one
  // comes back as a typed error on a still-usable connection (and bumps
  // the DEADLINEEXCEEDED gauge asserted in STATS below).
  if (!RunOne(client, "DEADLINE 30000 PING", true)) return 1;
  Result<std::string> spent = client.Request("DEADLINE 0 SNAP");
  if (!spent.ok() || spent->rfind("ERR DeadlineExceeded", 0) != 0) {
    std::fprintf(stderr, "smoke: DEADLINE 0 did not cancel: %s\n",
                 spent.ok() ? spent->c_str()
                            : spent.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", spent->c_str());

  // SNAP replies "OK <epoch> <journal_bytes> <node_count>". A journal at
  // exactly the 8-byte WAL header holds zero frames: on a quiescent
  // server nothing can move the point, so repeated queries must hit the
  // result cache (checked below).
  Result<std::string> snap = client.Request("SNAP");
  if (!snap.ok() || snap->rfind("OK", 0) != 0) return 1;
  std::printf("%s\n", snap->c_str());
  long epoch = 0, journal_bytes = -1;
  {
    std::istringstream in(*snap);
    std::string ok;
    in >> ok >> epoch >> journal_bytes;
  }
  const bool sealed = journal_bytes >= 0 && journal_bytes <= 8;

  // Gather real node ids to feed the batch verbs.
  Result<std::string> speeches = client.Request("XPATH //speech");
  Result<std::string> acts = client.Request("XPATH /play/act");
  if (!speeches.ok() || !acts.ok()) return 1;
  std::printf("%.60s\n%.60s\n", speeches->c_str(), acts->c_str());
  const std::vector<long> speech_ids = ParseIds(*speeches);
  const std::vector<long> act_ids = ParseIds(*acts);
  if (speech_ids.empty() || act_ids.empty()) return 1;

  std::ostringstream isanc;
  isanc << "ISANC 2 " << act_ids[0] << ' ' << speech_ids[0] << ' '
        << speech_ids[0] << ' ' << act_ids[0];
  if (!RunOne(client, isanc.str(), true)) return 1;

  std::ostringstream desc;
  desc << "DESC " << act_ids[0] << ' ' << speech_ids.size();
  for (long id : speech_ids) desc << ' ' << id;
  if (!RunOne(client, desc.str(), true)) return 1;

  std::ostringstream anc;
  anc << "ANC " << speech_ids[0] << ' ' << act_ids.size();
  for (long id : act_ids) anc << ' ' << id;
  if (!RunOne(client, anc.str(), true)) return 1;

  if (!RunOne(client, "XPATH //line[1]", true)) return 1;

  // EXPLAIN renders the compiled operator tree with per-operator
  // cardinalities (the check.sh planner leg greps it for operator names).
  if (!RunOne(client, "EXPLAIN /play//act", true)) return 1;

  // Repeat a query already served on this snapshot: the plan cache must
  // hit (plans are view-independent and never invalidated), and on a
  // quiescent sealed server the result cache must hit too — nothing can
  // have swung the epoch between the two runs.
  if (!RunOne(client, "XPATH //speech", false)) return 1;

  // STATS must report the open view's label-store residency (non-zero
  // LABELBYTES) and carry the planner counters wired in with the
  // plan/result caches.
  Result<std::string> stats = client.Request("STATS");
  if (!stats.ok()) return 1;
  std::printf("%s\n", stats->c_str());
  std::istringstream in(*stats);
  std::string token;
  long label_bytes = -1;
  long plan_hits = -1, plan_misses = -1, res_hits = -1, res_misses = -1;
  long shed = -1, deadline_exceeded = -1, idle_reaped = -1, draining = -1;
  while (in >> token) {
    if (token == "LABELBYTES") in >> label_bytes;
    if (token == "PLANHITS") in >> plan_hits;
    if (token == "PLANMISSES") in >> plan_misses;
    if (token == "RESHITS") in >> res_hits;
    if (token == "RESMISSES") in >> res_misses;
    if (token == "SHED") in >> shed;
    if (token == "DEADLINEEXCEEDED") in >> deadline_exceeded;
    if (token == "IDLEREAPED") in >> idle_reaped;
    if (token == "DRAINING") in >> draining;
  }
  if (label_bytes <= 0) {
    std::fprintf(stderr, "smoke: STATS LABELBYTES missing or zero\n");
    return 1;
  }
  if (plan_hits < 0 || plan_misses < 0 || res_hits < 0 || res_misses < 0) {
    std::fprintf(stderr, "smoke: STATS is missing planner counters\n");
    return 1;
  }
  // Each distinct query compiled once (misses); the repeated //speech
  // found its plan (hits).
  if (plan_misses < 1 || plan_hits < 1) {
    std::fprintf(stderr,
                 "smoke: expected plan-cache traffic, got PLANHITS %ld "
                 "PLANMISSES %ld\n",
                 plan_hits, plan_misses);
    return 1;
  }
  if (sealed && res_hits < 1) {
    std::fprintf(stderr,
                 "smoke: repeated query on a sealed server missed the "
                 "result cache (RESHITS %ld RESMISSES %ld)\n",
                 res_hits, res_misses);
    return 1;
  }
  // Robustness gauges: present (shed/idle counters at least zero), the
  // DEADLINE 0 probe above counted, and the server is not draining.
  if (shed < 0 || idle_reaped < 0) {
    std::fprintf(stderr, "smoke: STATS is missing SHED/IDLEREAPED\n");
    return 1;
  }
  if (deadline_exceeded < 1) {
    std::fprintf(stderr,
                 "smoke: DEADLINEEXCEEDED %ld, expected >= 1 after the "
                 "DEADLINE 0 probe\n",
                 deadline_exceeded);
    return 1;
  }
  if (draining != 0) {
    std::fprintf(stderr, "smoke: DRAINING %ld on a serving server\n",
                 draining);
    return 1;
  }

  if (!RunOne(client, "QUIT", true)) return 1;
  std::printf("smoke OK\n");
  return 0;
}

/// SNAP + EXPLAIN: prints the operator tree for one query.
int Explain(SocketClient& client, const std::string& xpath) {
  if (!RunOne(client, "SNAP", false)) return 1;
  if (!RunOne(client, "EXPLAIN " + xpath, true)) return 1;
  return RunOne(client, "QUIT", false) ? 0 : 1;
}

/// Cache-invalidation-on-checkpoint check, run against a server whose
/// writer is actively committing and checkpointing: seed the result cache
/// at the pinned snapshot point, then poll STATS until the retirement
/// listener sweeps it (RESINVALIDATIONS rises when a checkpoint publishes
/// a new epoch and the old epoch's cached results are dropped).
int PlanSmoke(SocketClient& client) {
  if (!RunOne(client, "SNAP", true)) return 1;
  if (!RunOne(client, "XPATH //speech", false)) return 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  long invalidations = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    Result<std::string> stats = client.Request("STATS");
    if (!stats.ok()) return 1;
    std::istringstream in(*stats);
    std::string token;
    while (in >> token) {
      if (token == "RESINVALIDATIONS") in >> invalidations;
    }
    if (invalidations > 0) {
      std::printf("%s\nplansmoke OK\n", stats->c_str());
      return RunOne(client, "QUIT", false) ? 0 : 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr,
               "plansmoke: no result-cache invalidation observed "
               "(RESINVALIDATIONS %ld)\n",
               invalidations);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  SocketClient client;
  Status connected = client.Connect(argv[1]);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.ToString().c_str());
    return 1;
  }
  if (std::string(argv[2]) == "--smoke") return Smoke(client);
  if (std::string(argv[2]) == "--plansmoke") return PlanSmoke(client);
  if (std::string(argv[2]) == "--explain") {
    if (argc < 4) return Usage();
    std::string xpath;
    for (int i = 3; i < argc; ++i) {
      if (i > 3) xpath += ' ';
      xpath += argv[i];
    }
    return Explain(client, xpath);
  }
  std::string line;
  for (int i = 2; i < argc; ++i) {
    if (i > 2) line += ' ';
    line += argv[i];
  }
  return RunOne(client, line, true) ? 0 : 1;
}
