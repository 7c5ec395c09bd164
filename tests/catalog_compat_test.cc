// Cross-limb-width durability compatibility.
//
// The fixture under tests/data/limb32_store was written by the 32-bit-limb
// arithmetic engine (v1, pre-"engine v2" migration): a catalog-v3 epoch-0
// snapshot, a PLDELTA1 delta checkpoint chained on top as epoch 1, and a
// journal tail of committed-but-uncheckpointed frames. Delta files are a
// read-only format now: Open reads the chain and compacts it into a v5
// snapshot of epoch 2 before it returns (durability_test.cc's
// DurabilityDelta.LegacyChain* test checks the files it leaves). The
// on-disk formats serialize label magnitudes as minimal little-endian byte
// strings (BigInt::ToMagnitudeBytes), so they are limb-width independent
// by construction — this suite pins that contract: the current build must
// open the store, replay the journal, and recover a document whose full
// observable state (structure, tags, labels, self-labels, SC order
// numbers) digests identically to what the 32-bit writer recorded in
// DIGEST.txt at write time.
//
// Regenerating the fixture (only meaningful from a 32-bit-limb checkout,
// whose Checkpoint wrote the delta): run catalog_compat_test with
// PRIMELABEL_WRITE_COMPAT_FIXTURE=1 and --gtest_also_run_disabled_tests
// --gtest_filter='*WriteFixture*'.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "corpus/durable_document_store.h"
#include "store/catalog.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"

#ifndef PRIMELABEL_TEST_DATA_DIR
#define PRIMELABEL_TEST_DATA_DIR "tests/data"
#endif

namespace primelabel {
namespace {

namespace fs = std::filesystem;

std::string FixtureDir() {
  return std::string(PRIMELABEL_TEST_DATA_DIR) + "/limb32_store";
}

/// Unique per test process: ctest runs tests from one binary
/// concurrently, and a shared literal name races SetUp/TearDown.
std::string TempDirPath(const char* name) {
  return std::string(::testing::TempDir()) + "/p" +
         std::to_string(::getpid()) + "-" + name;
}

/// Full observable state of a document (same digest scheme as
/// durability_test.cc): two documents with equal digests answer every
/// oracle query identically.
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

std::string FixturePlayXml() {
  PlayOptions options;
  options.acts = 3;
  options.scenes_per_act = 2;
  options.min_speeches_per_scene = 2;
  options.max_speeches_per_scene = 4;
  options.seed = 1804;  // deterministic: same XML from every checkout
  return SerializeXml(GeneratePlay("compat", options));
}

std::vector<NodeId> NonRootElements(const XmlTree& tree) {
  std::vector<NodeId> out;
  tree.Preorder([&](NodeId id, int) {
    if (id != tree.root() && tree.IsElement(id)) out.push_back(id);
  });
  return out;
}

/// The deterministic mutation schedule both the writer (32-bit build, once)
/// and any future regeneration replay: growth, reordering inserts, a
/// delete, and a wrap — enough to force SC rewrites and non-trivial labels
/// into both the checkpointed state and the journal tail.
void MutatePhaseOne(DurableDocumentStore& store) {
  std::vector<NodeId> elems = NonRootElements(store.document().tree());
  ASSERT_GE(elems.size(), 12u);
  ASSERT_TRUE(store.AppendChild(elems[2], "stagedir").ok());
  ASSERT_TRUE(store.InsertBefore(elems[5], "prologue").ok());
  ASSERT_TRUE(store.InsertAfter(elems[7], "epilogue").ok());
  ASSERT_TRUE(store.Delete(elems[11]).ok());
  ASSERT_TRUE(store.Wrap(elems[3], "frame").ok());
  ASSERT_TRUE(store.Flush().ok());
}

void MutatePhaseTwo(DurableDocumentStore& store) {
  std::vector<NodeId> elems = NonRootElements(store.document().tree());
  ASSERT_GE(elems.size(), 10u);
  ASSERT_TRUE(store.AppendChild(elems[1], "aside").ok());
  ASSERT_TRUE(store.InsertBefore(elems[9], "chorus").ok());
  ASSERT_TRUE(store.AppendChild(elems[6], "note").ok());
  ASSERT_TRUE(store.Flush().ok());
}

void CopyTree(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), fs::path(to) / entry.path().filename(),
                  fs::copy_options::overwrite_existing);
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Disabled by default: this is the fixture generator, run once from the
// 32-bit-limb checkout. It overwrites tests/data/limb32_store in the
// SOURCE tree.
TEST(CatalogCompat, DISABLED_WriteFixture) {
  if (std::getenv("PRIMELABEL_WRITE_COMPAT_FIXTURE") == nullptr) {
    GTEST_SKIP() << "set PRIMELABEL_WRITE_COMPAT_FIXTURE=1 to regenerate";
  }
  const std::string dir = FixtureDir();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);

  auto store = DurableDocumentStore::Create(dir, FixturePlayXml());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  MutatePhaseOne(*store);
  // Checkpoint: in the 32-bit-limb build epoch 1 landed as a delta
  // against the epoch-0 full snapshot (small change set), so readers of
  // the fixture exercise the whole chain: snapshot + delta + journal
  // replay. The current build writes a full snapshot here.
  ASSERT_TRUE(store->Checkpoint().ok());
  MutatePhaseTwo(*store);  // journal tail, committed but not checkpointed

  std::ofstream digest(dir + "/DIGEST.txt", std::ios::binary);
  digest << StateDigest(store->document());
  ASSERT_TRUE(digest.good());
}

/// The core acceptance check: a store written by the 32-bit-limb build
/// opens under the current build and recovers to the exact digest the
/// writer recorded — catalog v3 snapshot, delta chain and WAL replay all
/// bit-identical across the limb migration.
TEST(CatalogCompat, Limb32StoreRecoversBitIdentically) {
  const std::string fixture = FixtureDir();
  ASSERT_TRUE(fs::exists(fixture + "/MANIFEST"))
      << "missing fixture; run the DISABLED_WriteFixture generator";
  const std::string expected = ReadWholeFile(fixture + "/DIGEST.txt");
  ASSERT_FALSE(expected.empty());

  // Work on a copy: Open truncates journals and sweeps stray files.
  const std::string work = TempDirPath("limb32_compat_open");
  std::error_code ec;
  fs::remove_all(work, ec);
  CopyTree(fixture, work);

  auto store = DurableDocumentStore::Open(work);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_GT(store->recovery_stats().inserts_applied, 0u)
      << "fixture journal tail should force real WAL replay";
  EXPECT_EQ(StateDigest(store->document()), expected);
  fs::remove_all(work, ec);
}

/// Re-serialization closes the loop: checkpointing the recovered state
/// under the current build and reopening must reproduce the same digest,
/// proving the current writer's bytes round-trip through its own reader
/// starting from 32-bit-era label magnitudes.
TEST(CatalogCompat, Limb32StateSurvivesRewriteUnderCurrentBuild) {
  const std::string fixture = FixtureDir();
  ASSERT_TRUE(fs::exists(fixture + "/MANIFEST"));
  const std::string expected = ReadWholeFile(fixture + "/DIGEST.txt");

  const std::string work = TempDirPath("limb32_compat_rewrite");
  std::error_code ec;
  fs::remove_all(work, ec);
  CopyTree(fixture, work);

  {
    auto store = DurableDocumentStore::Open(work);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  auto reopened = DurableDocumentStore::Open(work);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->recovery_stats().inserts_applied, 0u);
  EXPECT_EQ(StateDigest(reopened->document()), expected);
  fs::remove_all(work, ec);
}

/// Every label magnitude in the recovered document survives a
/// bytes->BigInt->bytes round trip unchanged: the I/O-edge contract the
/// limb migration must preserve.
TEST(CatalogCompat, RecoveredLabelBytesRoundTrip) {
  const std::string fixture = FixtureDir();
  ASSERT_TRUE(fs::exists(fixture + "/MANIFEST"));
  const std::string work = TempDirPath("limb32_compat_bytes");
  std::error_code ec;
  fs::remove_all(work, ec);
  CopyTree(fixture, work);

  auto store = DurableDocumentStore::Open(work);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  int checked = 0;
  store->document().tree().Preorder([&](NodeId id, int) {
    const BigInt& label = store->document().scheme().structure().label(id);
    std::vector<std::uint8_t> bytes = label.ToMagnitudeBytes();
    if (!bytes.empty()) {
      EXPECT_NE(bytes.back(), 0u) << "magnitude bytes must be minimal";
    }
    EXPECT_TRUE(BigInt::FromMagnitudeBytes(bytes) == label);
    ++checked;
  });
  EXPECT_GT(checked, 0);
  fs::remove_all(work, ec);
}

// ---------------------------------------------------------------------------
// Cross-format catalog compatibility: the fixture under
// tests/data/catalog_formats holds one document saved as formats v2, v3,
// v4 and v5, with its observable state recorded in DIGEST.txt when v2 and
// v3 were written. The current build must serve all four with the exact
// recorded state, and re-saving any of them must reproduce v5.plc byte
// for byte. v2.plc, v3.plc, v4.plc and DIGEST.txt are kept as written
// (this build writes v5 only). To regenerate v5.plc from any checkout,
// run catalog_compat_test with PRIMELABEL_WRITE_COMPAT_FIXTURE=1 and
// --gtest_also_run_disabled_tests --gtest_filter='*FormatsFixture*'.

std::string FormatsDir() {
  return std::string(PRIMELABEL_TEST_DATA_DIR) + "/catalog_formats";
}

std::string FormatsXml() {
  PlayOptions options;
  options.acts = 2;
  options.scenes_per_act = 3;
  options.min_speeches_per_scene = 2;
  options.max_speeches_per_scene = 3;
  options.seed = 2004;  // deterministic: same XML from every checkout
  return SerializeXml(GeneratePlay("formats", options));
}

/// Observable state of a served catalog through its per-row accessors:
/// identical digests mean identical answers to every tag, structure,
/// attribute, and order query.
std::string CatalogDigest(const LoadedCatalog& catalog) {
  std::ostringstream out;
  for (std::size_t i = 0; i < catalog.row_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    out << catalog.tag_of(id) << '|' << catalog.is_element_of(id) << '|'
        << catalog.parent_of(id) << '|' << catalog.self_of(id) << '|'
        << BigInt::FromLimbs(catalog.label_view(id)).ToHexString() << '|'
        << catalog.OrderOf(id);
    for (const auto& [key, value] : catalog.attributes_of(id)) {
      out << '|' << key << '=' << value;
    }
    out << '\n';
  }
  return out.str();
}

// Disabled by default: fixture generator, overwrites
// tests/data/catalog_formats/v5.plc in the SOURCE tree.
TEST(CatalogCompat, DISABLED_WriteFormatsFixture) {
  if (std::getenv("PRIMELABEL_WRITE_COMPAT_FIXTURE") == nullptr) {
    GTEST_SKIP() << "set PRIMELABEL_WRITE_COMPAT_FIXTURE=1 to regenerate";
  }
  Result<LabeledDocument> doc =
      LabeledDocument::FromXml(FormatsXml());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::string path = FormatsDir() + "/v5.plc";
  ASSERT_TRUE(doc->Save(path).ok());
  // The new file must hold the state the older formats recorded.
  Result<LoadedCatalog> written = OpenCatalogMapped(DefaultVfs(), path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(CatalogDigest(*written),
            ReadWholeFile(FormatsDir() + "/DIGEST.txt"));
}

class CatalogFormatUpgrade : public ::testing::TestWithParam<int> {};

/// vN file -> decode -> served image -> v5 re-save, each checked against
/// the recorded state. One parameterized walk pins the whole upgrade path
/// bit-identically.
TEST_P(CatalogFormatUpgrade, RoundTripsToV5BitIdentically) {
  const int version = GetParam();
  const std::string source =
      FormatsDir() + "/v" + std::to_string(version) + ".plc";
  ASSERT_TRUE(fs::exists(source)) << "missing fixture " << source;
  const std::string expected = ReadWholeFile(FormatsDir() + "/DIGEST.txt");
  ASSERT_FALSE(expected.empty());

  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), source);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprints_valid, version >= 3);

  // Serving: a v5 file maps in place, v2/v3/v4 convert to an in-memory v5
  // image; either way the answers are the recorded ones.
  Result<LoadedCatalog> served = OpenCatalogMapped(DefaultVfs(), source);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->format_version(), version);
  EXPECT_EQ(CatalogDigest(*served), expected);

  // Upgrade: the restored document re-saves as exactly the committed v5
  // image, whatever format it came from, and that re-save maps in place.
  Result<LabeledDocument> doc = LabeledDocument::Load(source);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::string upgraded =
      TempDirPath(("formats_v" + std::to_string(version) + "_to_v5.plc")
                      .c_str());
  ASSERT_TRUE(doc->Save(upgraded).ok());
  EXPECT_EQ(ReadWholeFile(upgraded), ReadWholeFile(FormatsDir() + "/v5.plc"));
  Result<LoadedCatalog> v5 = OpenCatalogMapped(DefaultVfs(), upgraded);
  ASSERT_TRUE(v5.ok()) << v5.status().ToString();
  EXPECT_EQ(v5->format_version(), 5);
  EXPECT_TRUE(v5->fingerprints_persisted());
  EXPECT_EQ(CatalogDigest(*v5), expected);
  std::remove(upgraded.c_str());
}

INSTANTIATE_TEST_SUITE_P(V2AndV3, CatalogFormatUpgrade,
                         ::testing::Values(2, 3));
INSTANTIATE_TEST_SUITE_P(V4, CatalogFormatUpgrade, ::testing::Values(4));
INSTANTIATE_TEST_SUITE_P(V5, CatalogFormatUpgrade, ::testing::Values(5));

}  // namespace
}  // namespace primelabel
