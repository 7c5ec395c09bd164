#include "workload.h"

#include <algorithm>
#include <unordered_map>

#include "xml/datasets.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace wirebench {

using primelabel::kInvalidNodeId;
using primelabel::Rng;

namespace {

/// Plays in the §5.2 query corpus.
constexpr int kReplicas = 10;
/// oracle_deep tree: deep and narrow enough that most labels need 4+
/// limbs, the width where the multi-limb REDC batch kernel runs.
constexpr std::size_t kDeepNodes = 40000;
constexpr int kDeepMaxDepth = 96;
constexpr int kDeepMaxFanout = 2;
constexpr std::uint64_t kDeepTreeSeed = 0xDEE9;

constexpr const char* kSpeakers[] = {
    "HAMLET",   "CLAUDIUS", "GERTRUDE",  "POLONIUS",    "OPHELIA",
    "LAERTES",  "HORATIO",  "FORTINBRAS", "ROSENCRANTZ", "GUILDENSTERN",
    "MARCELLUS", "BARNARDO", "FRANCISCO", "REYNALDO",    "OSRIC",
    "VOLTEMAND", "CORNELIUS", "GHOST",    "PLAYER KING", "PLAYER QUEEN",
    "LUCIANUS", "GRAVEDIGGER", "PRIEST",  "CAPTAIN",     "AMBASSADOR",
    "GENTLEMAN",
};
constexpr int kSpeakerCount = sizeof(kSpeakers) / sizeof(kSpeakers[0]);

int Pick(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.Uniform(static_cast<std::uint64_t>(lo),
                                      static_cast<std::uint64_t>(hi)));
}

std::string TreeWalkReply(const XmlTree& tree, const std::string& xpath) {
  primelabel::Result<primelabel::XPathQuery> parsed =
      primelabel::ParseXPath(xpath);
  PL_CHECK(parsed.ok());
  return IdListReply(primelabel::EvaluateXPathOnTree(tree, parsed.value()));
}

/// The nine Table 2 queries (bench/bench_fig15_queries.cc), in equal
/// shares. Each keeps its axes and predicates but is anchored under one
/// play, act and scene of the connection's own plays, which gives every
/// shape enough distinct instances to stay out of the caches. Q3 also
/// names a speaker, the `@name` predicate.
constexpr const char* kXpathShapes[] = {"Q1", "Q2", "Q3", "Q4", "Q5",
                                        "Q6", "Q7", "Q8", "Q9"};
constexpr int kXpathShapeCount =
    sizeof(kXpathShapes) / sizeof(kXpathShapes[0]);

std::string MakeXpath(int shape, int play, Rng& rng) {
  const std::string p = "/plays/play[" + std::to_string(play) + "]";
  const std::string act = std::to_string(Pick(rng, 1, 5));
  const std::string scene = std::to_string(Pick(rng, 1, 4));
  const std::string speech = std::to_string(Pick(rng, 1, 40));
  const std::string scene_path = p + "/act[" + act + "]/scene[" + scene + "]";
  switch (shape) {
    case 0:  // Q1 /play//act[4]
      return p + "/act[" + act + "]//speech[" + speech + "]";
    case 1:  // Q2 /play//act[3]//Following::act
      return scene_path + "//Following::act";
    case 2:  // Q3 /play//act//speaker
      return p + "/act[" + act + "]//speaker[@name='" +
             kSpeakers[rng.Below(kSpeakerCount)] + "']";
    case 3:  // Q4 /act[5]//Following::speech
      return scene_path + "//Following::speech";
    case 4:  // Q5 /speech[4]//Preceding::line
      return scene_path + "/speech[" + speech + "]//Preceding::line";
    case 5:  // Q6 /play//act[3]//line
      return p + "//act[" + act + "]//scene[" + scene + "]//line";
    case 6:  // Q7 /play//speech[1]//Following-sibling::speech[3]
      return scene_path + "/speech[" + speech +
             "]//Following-sibling::speech[" + std::to_string(Pick(rng, 1, 8)) +
             "]";
    case 7:  // Q8 /play//speech
      return scene_path + "//speech";
    default:  // Q9 /play//line
      return scene_path + "//line";
  }
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  if (name == "xpath_cold") {
    *out = WorkloadKind::kXpathCold;
  } else if (name == "oracle_deep") {
    *out = WorkloadKind::kOracleDeep;
  } else if (name == "live_write") {
    *out = WorkloadKind::kLiveWrite;
  } else {
    return false;
  }
  return true;
}

Corpus MakeCorpus(WorkloadKind kind) {
  Corpus corpus;
  XmlTree tree;
  switch (kind) {
    case WorkloadKind::kXpathCold:
      corpus.description = "GenerateShakespeareCorpus(" +
                           std::to_string(kReplicas) + ")";
      tree = primelabel::GenerateShakespeareCorpus(kReplicas);
      break;
    case WorkloadKind::kOracleDeep: {
      primelabel::RandomTreeOptions options;
      options.node_count = kDeepNodes;
      options.max_depth = kDeepMaxDepth;
      options.max_fanout = kDeepMaxFanout;
      options.seed = kDeepTreeSeed;
      corpus.description = "GenerateRandomTree(nodes=" +
                           std::to_string(kDeepNodes) + ", max_depth=" +
                           std::to_string(kDeepMaxDepth) + ", max_fanout=" +
                           std::to_string(kDeepMaxFanout) + ")";
      tree = primelabel::GenerateRandomTree(options);
      break;
    }
    case WorkloadKind::kLiveWrite:
      corpus.description = "GenerateHamlet()";
      tree = primelabel::GenerateHamlet();
      break;
  }
  corpus.xml = primelabel::SerializeXml(tree);
  primelabel::Result<XmlTree> parsed = primelabel::ParseXml(corpus.xml);
  PL_CHECK(parsed.ok());
  corpus.reference = std::move(parsed.value());
  return corpus;
}

std::string IdListReply(const std::vector<NodeId>& ids) {
  std::string out = "OK " + std::to_string(ids.size());
  for (NodeId id : ids) {
    out += ' ';
    out += std::to_string(id);
  }
  return out;
}

bool WalkIsAncestor(const XmlTree& tree, NodeId ancestor, NodeId node) {
  for (NodeId up = tree.parent(node); up != kInvalidNodeId;
       up = tree.parent(up)) {
    if (up == ancestor) return true;
  }
  return false;
}

Stream MakeXpathStream(const Corpus& corpus, int conn, std::uint64_t seed,
                       std::size_t count, std::size_t checked) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 101 + static_cast<std::uint64_t>(conn));
  Stream stream;
  std::unordered_map<std::string, std::size_t> pool_index;
  std::vector<std::size_t> last_use;
  std::vector<int> block(kXpathShapeCount);
  stream.order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Every block of nine requests holds each shape once, in seeded order.
    const std::size_t slot = i % kXpathShapeCount;
    if (slot == 0) {
      for (int s = 0; s < kXpathShapeCount; ++s) block[s] = s;
      for (int s = kXpathShapeCount; s > 1; --s) {
        std::swap(block[s - 1], block[rng.Below(static_cast<std::uint64_t>(s))]);
      }
    }
    const int shape = block[slot];
    std::string query;
    for (int attempt = 0;; ++attempt) {
      PL_CHECK(attempt < 1000);
      // Connection 0 queries the odd plays, connection 1 the even ones.
      const int play = 2 * Pick(rng, 0, kReplicas / 2 - 1) + 1 + conn;
      query = MakeXpath(shape, play, rng);
      auto it = pool_index.find(query);
      if (it == pool_index.end() || i - last_use[it->second] >= kMinReuseDistance) {
        break;
      }
    }
    auto [it, inserted] = pool_index.emplace(query, stream.pool.size());
    if (inserted) {
      Request request;
      request.verb = Verb::kXpath;
      request.line = "XPATH " + query;
      request.shape = kXpathShapes[shape];
      stream.pool.push_back(std::move(request));
      last_use.push_back(i);
    } else {
      last_use[it->second] = i;
    }
    stream.order.push_back(static_cast<std::uint32_t>(it->second));
  }
  // A seeded sample of `checked` distinct queries, drawn without
  // replacement, is checked against the tree walk.
  std::vector<std::size_t> indexes(stream.pool.size());
  for (std::size_t k = 0; k < indexes.size(); ++k) indexes[k] = k;
  Rng sample(seed ^ (0xC0FFEEull + static_cast<std::uint64_t>(conn)));
  for (std::size_t k = 0; k < checked && k < indexes.size(); ++k) {
    std::swap(indexes[k], indexes[k + sample.Below(indexes.size() - k)]);
    Request& request = stream.pool[indexes[k]];
    request.expected = TreeWalkReply(corpus.reference, request.line.substr(6));
  }
  return stream;
}

Stream MakeOracleStream(const Corpus& corpus, int conn, std::uint64_t seed,
                        std::size_t count, std::size_t pool_size) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + 202 + static_cast<std::uint64_t>(conn));
  const XmlTree& tree = corpus.reference;
  const std::uint64_t n = tree.node_count();
  auto random_id = [&]() { return static_cast<NodeId>(rng.Below(n)); };

  Stream stream;
  stream.pool.reserve(pool_size);
  for (std::size_t p = 0; p < pool_size; ++p) {
    Request request;
    std::vector<NodeId> answer;
    const std::uint64_t kind = rng.Below(3);
    if (kind == 0) {
      constexpr int kPairs = 256;
      request.verb = Verb::kIsAnc;
      request.shape = "ISANC";
      request.line = "ISANC " + std::to_string(kPairs);
      request.expected = "OK " + std::to_string(kPairs);
      for (int i = 0; i < kPairs; ++i) {
        const NodeId a = random_id();
        const NodeId d = random_id();
        request.line += ' ' + std::to_string(a) + ' ' + std::to_string(d);
        request.expected += WalkIsAncestor(tree, a, d) ? " 1" : " 0";
      }
    } else {
      constexpr int kCandidates = 1024;
      const bool desc = kind == 1;
      const NodeId anchor = random_id();
      request.verb = desc ? Verb::kDesc : Verb::kAnc;
      request.shape = desc ? "DESC" : "ANC";
      request.line = std::string(desc ? "DESC " : "ANC ") +
                     std::to_string(anchor) + ' ' + std::to_string(kCandidates);
      for (int i = 0; i < kCandidates; ++i) {
        const NodeId c = random_id();
        request.line += ' ' + std::to_string(c);
        if (desc ? WalkIsAncestor(tree, anchor, c)
                 : WalkIsAncestor(tree, c, anchor)) {
          answer.push_back(c);
        }
      }
      request.expected = IdListReply(answer);
    }
    stream.pool.push_back(std::move(request));
  }
  stream.order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream.order.push_back(static_cast<std::uint32_t>(i % pool_size));
  }
  return stream;
}

Stream MakeHotStream(int conn, std::uint64_t seed, std::size_t count) {
  constexpr std::size_t kSnapEvery = 16;
  Rng rng(seed * 0xA24BAED4963EE407ull + 303 + static_cast<std::uint64_t>(conn));
  Stream stream;
  Request snap;
  snap.verb = Verb::kSnap;
  snap.line = "SNAP";
  snap.shape = "SNAP";
  stream.pool.push_back(snap);

  // The nine Table 2 queries on Hamlet, anchored at the connection's own
  // act: connection 0 reads act 2, connection 1 act 3. The writer's
  // order-sensitive inserts land before the last act, so these positions
  // keep naming the same acts. Replies carry up to ~1,500 ids, so a hit's
  // time is reply formatting and the socket; each new view costs each
  // connection up to nine misses.
  const std::string a = "act[" + std::to_string(2 + conn) + "]";
  const std::pair<const char*, std::string> queries[] = {
      {"Q1", "/play//" + a},
      {"Q2", "/play//" + a + "//Following::act"},
      {"Q3", "/play//" + a + "//speaker"},
      {"Q4", "/play/" + a + "//Following::speech"},
      {"Q5", "/play/" + a + "//speech[4]//Preceding::line"},
      {"Q6", "/play//" + a + "//line"},
      {"Q7", "/play/" + a + "//speech[1]//Following-sibling::speech[3]"},
      {"Q8", "/play/" + a + "//speech"},
      {"Q9", "/play/" + a + "//line"},
  };
  for (const auto& [shape, query] : queries) {
    Request request;
    request.verb = Verb::kXpath;
    request.line = "XPATH " + query;
    request.shape = shape;
    stream.pool.push_back(std::move(request));
  }

  // Every hot query is equally likely.
  const std::uint64_t hot = stream.pool.size() - 1;
  stream.order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream.order.push_back(
        i % kSnapEvery == 0 ? 0 : static_cast<std::uint32_t>(1 + rng.Below(hot)));
  }
  return stream;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInsertBefore:
      return "InsertBefore";
    case OpKind::kInsertAfter:
      return "InsertAfter";
    case OpKind::kAppendChild:
      return "AppendChild";
    case OpKind::kWrap:
      return "Wrap";
    case OpKind::kDelete:
      return "Delete";
  }
  return "?";
}

WriterPlan::WriterPlan(std::uint64_t seed, const XmlTree& tree)
    : rng_(seed * 0x94D049BB133111EBull + 404) {
  tree.Preorder([&](NodeId id, int depth) {
    if (!tree.IsElement(id)) return;
    if (depth == 1) hot_ = id;  // ends as the root's last element child
    if (depth >= 2) targets_.push_back(id);
  });
  PL_CHECK(hot_ != kInvalidNodeId && !targets_.empty());
}

WriteOp WriterPlan::Next(const XmlTree& tree) {
  WriteOp op;
  switch (ops_++ % 5) {
    case 0:  // Fig. 18
      op.kind = OpKind::kInsertBefore;
      op.target = hot_;
      op.tag = tree.name(hot_);
      break;
    case 1:  // Fig. 16
      op.kind = OpKind::kInsertAfter;
      op.target = targets_[rng_.Below(targets_.size())];
      op.tag = tree.name(op.target);
      break;
    case 2:  // Fig. 16
      op.kind = OpKind::kAppendChild;
      op.target = targets_[rng_.Below(targets_.size())];
      op.tag = "note";
      break;
    case 3:  // Fig. 17
      op.kind = OpKind::kWrap;
      op.target = targets_[rng_.Below(targets_.size())];
      op.tag = "div";
      break;
    default: {
      op.kind = OpKind::kDelete;
      auto oldest = std::find_if(deletable_.begin(), deletable_.end(),
                                 [&](NodeId id) { return id != hot_; });
      PL_CHECK(oldest != deletable_.end());
      op.target = *oldest;
      break;
    }
  }
  return op;
}

void WriterPlan::Applied(const WriteOp& op) {
  switch (op.kind) {
    case OpKind::kInsertBefore:
      hot_ = op.fresh;
      deletable_.push_back(op.fresh);
      break;
    case OpKind::kInsertAfter:
    case OpKind::kAppendChild:
      deletable_.push_back(op.fresh);
      break;
    case OpKind::kDelete:
      deletable_.erase(
          std::find(deletable_.begin(), deletable_.end(), op.target));
      break;
    case OpKind::kWrap:
      break;
  }
}

primelabel::Status ApplyToStore(primelabel::DurableDocumentStore& store,
                                WriteOp* op) {
  if (op->kind == OpKind::kDelete) return store.Delete(op->target);
  primelabel::Result<NodeId> fresh =
      op->kind == OpKind::kInsertBefore ? store.InsertBefore(op->target, op->tag)
      : op->kind == OpKind::kInsertAfter
          ? store.InsertAfter(op->target, op->tag)
      : op->kind == OpKind::kAppendChild
          ? store.AppendChild(op->target, op->tag)
          : store.Wrap(op->target, op->tag);
  if (!fresh.ok()) return fresh.status();
  op->fresh = fresh.value();
  return primelabel::Status::Ok();
}

void ApplyToDocument(primelabel::LabeledDocument& doc, const WriteOp& op) {
  switch (op.kind) {
    case OpKind::kInsertBefore:
      doc.InsertBefore(op.target, op.tag);
      break;
    case OpKind::kInsertAfter:
      doc.InsertAfter(op.target, op.tag);
      break;
    case OpKind::kAppendChild:
      doc.AppendChild(op.target, op.tag);
      break;
    case OpKind::kWrap:
      doc.Wrap(op.target, op.tag);
      break;
    case OpKind::kDelete:
      doc.Delete(op.target);
      break;
  }
}

bool ApplyToModel(XmlTree& model, const WriteOp& op) {
  NodeId fresh = kInvalidNodeId;
  switch (op.kind) {
    case OpKind::kInsertBefore:
      fresh = model.InsertBefore(op.target, op.tag);
      break;
    case OpKind::kInsertAfter:
      fresh = model.InsertAfter(op.target, op.tag);
      break;
    case OpKind::kAppendChild:
      fresh = model.AppendChild(op.target, op.tag);
      break;
    case OpKind::kWrap:
      fresh = model.WrapNode(op.target, op.tag);
      break;
    case OpKind::kDelete:
      model.Detach(op.target);
      return true;
  }
  return fresh == op.fresh;
}

}  // namespace wirebench
