#include "store/catalog.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/reduction.h"
#include "corpus/labeled_document.h"
#include "xml/datasets.h"
#include "xml/shakespeare.h"

#ifndef PRIMELABEL_TEST_DATA_DIR
#define PRIMELABEL_TEST_DATA_DIR "tests/data"
#endif

namespace primelabel {
namespace {

/// Unique per test process: ctest runs tests from one binary
/// concurrently, and a shared literal name races SetUp/TearDown.
std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/p" +
         std::to_string(::getpid()) + "-" + name;
}

/// A committed format fixture: one document saved as v2, v3, v4 and v5 (see
/// catalog_compat_test.cc, which pins their recorded state).
std::string FormatsFixture(const char* name) {
  return std::string(PRIMELABEL_TEST_DATA_DIR) + "/catalog_formats/" + name;
}

/// Copies `fixture` to a temp file named `name` with the byte at `offset`
/// XORed by `mask`; returns the copy's path.
std::string FlippedCopy(const std::string& fixture, std::size_t offset,
                        std::uint8_t mask, const char* name) {
  std::ifstream in(fixture, std::ios::binary);
  EXPECT_TRUE(in.good()) << fixture;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_LT(offset, bytes.size()) << fixture;
  bytes[offset] = static_cast<char>(bytes[offset] ^ mask);
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
  return path;
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PlayOptions options;
    options.acts = 2;
    options.scenes_per_act = 2;
    options.min_speeches_per_scene = 2;
    options.max_speeches_per_scene = 4;
    options.seed = 21;
    doc_.emplace(
        LabeledDocument::FromTree(GeneratePlay("t", options)));
  }

  const XmlTree& tree() const { return doc_->tree(); }
  const OrderedPrimeScheme& scheme() const { return doc_->scheme(); }

  std::optional<LabeledDocument> doc_;
};

TEST_F(CatalogTest, SaveLoadRoundTripsRows) {
  std::string path = TempPath("roundtrip.plc");
  ASSERT_TRUE(SaveCatalog(path, *doc_).ok());
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fingerprints_valid);

  std::vector<NodeId> preorder = tree().PreorderNodes();
  ASSERT_EQ(loaded->rows.size(), preorder.size());
  for (std::size_t i = 0; i < preorder.size(); ++i) {
    const CatalogRow& row = loaded->rows[i];
    EXPECT_EQ(row.tag, tree().name(preorder[i]));
    EXPECT_EQ(row.is_element, tree().IsElement(preorder[i]));
    EXPECT_EQ(row.attributes, tree().node(preorder[i]).attributes);
    EXPECT_EQ(row.label, scheme().structure().label(preorder[i]));
    EXPECT_EQ(row.self, scheme().structure().self_label(preorder[i]));
  }
  std::remove(path.c_str());
}

TEST_F(CatalogTest, LoadedCatalogAnswersStructureQueries) {
  std::string path = TempPath("structure.plc");
  ASSERT_TRUE(SaveCatalog(path, *doc_).ok());
  Result<LoadedCatalog> loaded = OpenCatalogMapped(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok());

  std::vector<NodeId> preorder = tree().PreorderNodes();
  // Rows are in document order: compare against the live tree for a sample
  // of pairs.
  for (std::size_t x = 0; x < preorder.size(); x += 7) {
    for (std::size_t y = 0; y < preorder.size(); y += 5) {
      EXPECT_EQ(loaded->IsAncestor(x, y),
                tree().IsAncestor(preorder[x], preorder[y]))
          << x << " " << y;
      EXPECT_EQ(loaded->IsParent(x, y),
                tree().parent(preorder[y]) == preorder[x])
          << x << " " << y;
    }
  }
  std::remove(path.c_str());
}

TEST_F(CatalogTest, LoadedCatalogAnswersOrderQueries) {
  std::string path = TempPath("order.plc");
  ASSERT_TRUE(SaveCatalog(path, *doc_).ok());
  Result<LoadedCatalog> loaded = OpenCatalogMapped(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok());
  // Row index == preorder rank == order number.
  for (std::size_t i = 0; i < loaded->row_count(); i += 3) {
    EXPECT_EQ(loaded->OrderOf(i), i);
  }
  std::remove(path.c_str());
}

TEST_F(CatalogTest, SurvivesOrderSensitiveUpdateBeforeSave) {
  std::vector<NodeId> acts = doc_->Query("//act").value();
  ASSERT_GE(acts.size(), 2u);
  doc_->InsertBefore(acts[1], "act");
  std::string path = TempPath("updated.plc");
  ASSERT_TRUE(doc_->Save(path).ok());
  Result<LoadedCatalog> loaded = OpenCatalogMapped(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok());
  std::vector<NodeId> preorder = tree().PreorderNodes();
  for (std::size_t i = 0; i < preorder.size(); ++i) {
    EXPECT_EQ(loaded->OrderOf(i), scheme().OrderOf(preorder[i])) << i;
  }
  std::remove(path.c_str());
}

TEST_F(CatalogTest, LoadRestoresLiveDocument) {
  std::string path = TempPath("restore.plc");
  ASSERT_TRUE(doc_->Save(path).ok());
  Result<LabeledDocument> restored = LabeledDocument::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::remove(path.c_str());

  // Structure, labels, and SC table carry over bit-identically.
  std::vector<NodeId> original = tree().PreorderNodes();
  std::vector<NodeId> rebuilt = restored->tree().PreorderNodes();
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored->tree().name(rebuilt[i]), tree().name(original[i]));
    EXPECT_EQ(restored->scheme().structure().label(rebuilt[i]),
              scheme().structure().label(original[i]));
    EXPECT_EQ(restored->scheme().OrderOf(rebuilt[i]),
              scheme().OrderOf(original[i]));
  }

  // Queries (including attribute predicates) answer as before the restart.
  for (const char* q : {"/play//act", "/play//scene[2]", "//speech/speaker"}) {
    EXPECT_EQ(restored->Query(q).value().size(), doc_->Query(q).value().size())
        << q;
  }
}

TEST_F(CatalogTest, RestoredDocumentAcceptsUpdatesWithFreshPrimes) {
  std::string path = TempPath("update-after-load.plc");
  ASSERT_TRUE(doc_->Save(path).ok());
  Result<LabeledDocument> restored = LabeledDocument::Load(path);
  ASSERT_TRUE(restored.ok());
  std::remove(path.c_str());

  std::vector<NodeId> acts = restored->Query("//act").value();
  ASSERT_FALSE(acts.empty());
  NodeId fresh = restored->InsertAfter(acts.back(), "act");
  EXPECT_GE(restored->last_update_cost(), 1);

  // The adopted cursor must hand the new node a prime no stored label
  // already uses — self-labels stay pairwise distinct.
  std::set<std::uint64_t> selves;
  for (NodeId id : restored->tree().PreorderNodes()) {
    if (id == restored->tree().root()) continue;
    EXPECT_TRUE(selves.insert(restored->scheme().structure().self_label(id))
                    .second)
        << "duplicate self-label at node " << id;
  }
  // The fresh node participates in order queries immediately.
  std::vector<NodeId> after = restored->Query("//act").value();
  EXPECT_EQ(after.size(), acts.size() + 1);
  EXPECT_EQ(after.back(), fresh);
}

TEST(CatalogAttributes, RoundTripThroughSaveAndLoad) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId a = tree.AppendChild(root, "a");
  tree.AddAttribute(a, "id", "first");
  tree.AddAttribute(a, "lang", "en");
  NodeId b = tree.AppendChild(root, "b");
  tree.AddAttribute(b, "id", "second");
  tree.AppendText(b, "payload");
  LabeledDocument doc = LabeledDocument::FromTree(std::move(tree));

  std::string path = TempPath("attrs.plc");
  ASSERT_TRUE(doc.Save(path).ok());
  Result<LabeledDocument> restored = LabeledDocument::Load(path);
  ASSERT_TRUE(restored.ok());
  std::remove(path.c_str());

  EXPECT_EQ(restored->Query("//a[@id='first']").value().size(), 1u);
  EXPECT_EQ(restored->Query("//b[@id='second']").value().size(), 1u);
  EXPECT_EQ(restored->Query("//a[@id='second']").value().size(), 0u);
  NodeId ra = restored->tree().FindFirst("a");
  ASSERT_NE(ra, kInvalidNodeId);
  EXPECT_EQ(restored->tree().node(ra).attributes,
            (std::vector<std::pair<std::string, std::string>>{
                {"id", "first"}, {"lang", "en"}}));
  // Text nodes survive too.
  NodeId rb = restored->tree().FindFirst("b");
  ASSERT_NE(rb, kInvalidNodeId);
  NodeId text = restored->tree().first_child(rb);
  ASSERT_NE(text, kInvalidNodeId);
  EXPECT_FALSE(restored->tree().IsElement(text));
  EXPECT_EQ(restored->tree().name(text), "payload");
}

/// Scalar and order answers of two catalogs over the same rows agree.
void ExpectSameAnswers(const LoadedCatalog& a, const LoadedCatalog& b) {
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t x = 0; x < a.row_count(); x += 5) {
    for (std::size_t y = 0; y < a.row_count(); y += 3) {
      EXPECT_EQ(a.IsAncestor(x, y), b.IsAncestor(x, y)) << x << " " << y;
    }
    EXPECT_EQ(a.OrderOf(x), b.OrderOf(x)) << x;
  }
}

TEST_F(CatalogTest, V3PersistsFingerprintsAndSkipsRecompute) {
  // Loading a v3 catalog whose config hash matches this binary must adopt
  // the stored fingerprints wholesale: zero FingerprintOf calls on the
  // load path (counter-instrumented in bigint/reduction.cc).
  const std::string path = FormatsFixture("v3.plc");
  std::uint64_t before = FingerprintComputeCount();
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fingerprints_valid);
  EXPECT_EQ(FingerprintComputeCount(), before);

  // Serving it converts the rows to a v4 image without recomputing.
  Result<LoadedCatalog> served = OpenCatalogMapped(DefaultVfs(), path);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->format_version(), 3);
  EXPECT_TRUE(served->fingerprints_persisted());
  EXPECT_EQ(FingerprintComputeCount(), before);

  // The document-level load adopts them too.
  Result<LabeledDocument> restored = LabeledDocument::Load(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(FingerprintComputeCount(), before);

  // Adopted fingerprints reject/accept exactly like recomputed ones.
  Result<LabeledDocument> recomputed =
      LabeledDocument::Load(FormatsFixture("v2.plc"));
  ASSERT_TRUE(recomputed.ok());
  for (const char* q : {"//speech", "//act//line", "//scene/title"}) {
    EXPECT_EQ(restored->Query(q).value(), recomputed->Query(q).value()) << q;
  }
}

TEST_F(CatalogTest, V4PersistsFingerprintsAndSkipsRecompute) {
  // The v4 twin of the test above: each 72-byte FPS entry's 16-byte tail
  // is adopted as the row's fingerprint, with zero FingerprintOf calls.
  const std::string path = FormatsFixture("v4.plc");
  std::uint64_t before = FingerprintComputeCount();
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fingerprints_valid);
  EXPECT_EQ(FingerprintComputeCount(), before);

  // Serving it converts the rows to a v5 image without recomputing.
  Result<LoadedCatalog> served = OpenCatalogMapped(DefaultVfs(), path);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->format_version(), 4);
  EXPECT_TRUE(served->fingerprints_persisted());
  EXPECT_EQ(FingerprintComputeCount(), before);

  Result<LabeledDocument> restored = LabeledDocument::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(FingerprintComputeCount(), before);

  // The adopted tails are the labels' fingerprints: a wrong tail offset
  // would hand the screen garbage masks.
  for (const CatalogRow& row : loaded->rows) {
    EXPECT_EQ(row.fingerprint, FingerprintOf(row.label)) << row.tag;
  }
}

TEST_F(CatalogTest, V2FilesStayLoadableWithRecompute) {
  const std::string path = FormatsFixture("v2.plc");
  std::uint64_t before = FingerprintComputeCount();
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->fingerprints_valid);
  EXPECT_EQ(loaded->rows.size(), 124u);
  // Decoding alone derives nothing; the consumer fingerprints.
  EXPECT_EQ(FingerprintComputeCount(), before);

  // Serving a v2 file pays the per-row recompute the v3 format
  // eliminates, once per row.
  Result<LoadedCatalog> v2 = OpenCatalogMapped(DefaultVfs(), path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->format_version(), 2);
  EXPECT_FALSE(v2->fingerprints_persisted());
  EXPECT_EQ(FingerprintComputeCount() - before, loaded->rows.size());

  // So does the document load (in OrderedPrimeScheme::Adopt): once per
  // row, not once while decoding and again while adopting.
  before = FingerprintComputeCount();
  Result<LabeledDocument> doc = LabeledDocument::Load(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(FingerprintComputeCount() - before, loaded->rows.size());

  // Both formats answer identically.
  Result<LoadedCatalog> v3 =
      OpenCatalogMapped(DefaultVfs(), FormatsFixture("v3.plc"));
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  ExpectSameAnswers(*v2, *v3);
}

TEST_F(CatalogTest, V3StaleConfigHashFallsBackToRecompute) {
  // Flip a byte of the stored FingerprintConfigHash (the 8 bytes right
  // after the magic): the stored fingerprints were built by a "different"
  // binary, so the load must recompute rather than adopt. (In v4 the
  // config hash sits inside the digested header, so flipping it is
  // corruption, not a stale config.)
  const std::string path =
      FlippedCopy(FormatsFixture("v3.plc"), 8, 0x5A, "stale-hash.plc");
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->fingerprints_valid);

  std::uint64_t before = FingerprintComputeCount();
  Result<LoadedCatalog> stale = OpenCatalogMapped(DefaultVfs(), path);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale->format_version(), 3);
  EXPECT_FALSE(stale->fingerprints_persisted());
  EXPECT_EQ(FingerprintComputeCount() - before, loaded->rows.size());

  // Recomputed fingerprints keep the oracle sound.
  Result<LoadedCatalog> pristine =
      OpenCatalogMapped(DefaultVfs(), FormatsFixture("v3.plc"));
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();
  ExpectSameAnswers(*stale, *pristine);
  std::remove(path.c_str());
}

TEST(CatalogErrors, UnsupportedVersionNamesFoundAndSupported) {
  // A future-format file must fail with a message naming what was found
  // and what this build can read — not a generic parse error.
  std::string path = TempPath("v7.plc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("PLCATLG7", f);
  std::fclose(f);
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::string message = loaded.status().ToString();
  EXPECT_NE(message.find("format version 7"), std::string::npos) << message;
  EXPECT_NE(message.find("2 .. 5"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(CatalogErrors, MissingFile) {
  Result<CatalogState> loaded =
      LoadCatalog(DefaultVfs(), TempPath("does-not-exist.plc"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CatalogErrors, BadMagic) {
  std::string path = TempPath("garbage.plc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a catalog at all", f);
  std::fclose(f);
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CatalogErrors, RejectsV1Files) {
  // The v1 magic is one byte off; files written before the attribute
  // format must fail cleanly rather than parse garbage.
  std::string path = TempPath("v1.plc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("PLCATLG1", f);
  std::fclose(f);
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CatalogErrors, TruncatedFile) {
  // Save a real catalog, then chop it and expect a clean failure.
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  tree.AppendChild(root, "a");
  tree.AppendChild(root, "b");
  LabeledDocument doc = LabeledDocument::FromTree(std::move(tree));
  std::string path = TempPath("truncated.plc");
  ASSERT_TRUE(doc.Save(path).ok());
  // Read, truncate to 60%, rewrite.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string data(static_cast<std::size_t>(size), '\0');
  ASSERT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(data.data(), 1, data.size() * 6 / 10, f);
  std::fclose(f);
  Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(LabeledDocument::Load(path).ok());
  std::remove(path.c_str());
}

TEST(CatalogErrors, RowCountBeyondFileFailsCleanly) {
  // v2/v3 files carry no checksum. Setting bit 31 of the row count (byte
  // 11 of v2.plc, byte 19 of v3.plc, after the magic and v3's config
  // hash) claims ~2^31 rows the file cannot hold: every reader must fail
  // typed before sizing anything from that count.
  for (const auto& [fixture, offset] :
       {std::pair<const char*, std::size_t>{"v2.plc", 11},
        std::pair<const char*, std::size_t>{"v3.plc", 19}}) {
    const std::string path =
        FlippedCopy(FormatsFixture(fixture), offset, 0x80, fixture);
    Result<CatalogState> loaded = LoadCatalog(DefaultVfs(), path);
    ASSERT_FALSE(loaded.ok()) << fixture;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << fixture << ": " << loaded.status().ToString();
    Result<LoadedCatalog> served = OpenCatalogMapped(DefaultVfs(), path);
    ASSERT_FALSE(served.ok()) << fixture;
    EXPECT_EQ(served.status().code(), StatusCode::kParseError)
        << fixture << ": " << served.status().ToString();
    EXPECT_FALSE(LabeledDocument::Load(path).ok()) << fixture;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace primelabel
