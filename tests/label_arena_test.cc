// Succinct label arena and catalog image integrity (DESIGN.md §15).
//
// Three contracts pinned here:
//   1. LabelArena round-trips arbitrary magnitude sequences and rejects
//      damaged images with kCorruption instead of reading out of bounds.
//   2. Every byte of a sectioned catalog — a fresh v5 save, and the
//      committed v4 fixture that OpenCatalogMapped converts on open — is
//      covered by a digest: flipping one byte inside the header, the
//      directory, or any of the six sections must surface kCorruption
//      from both LoadCatalog and OpenCatalogMapped (corruption is never
//      converted to a fresh image). Truncating the image mid-mmap-length
//      also fails typed; a missing file is kNotFound.
//   3. A mapped catalog answers every oracle query bit-identically to the
//      document LabeledDocument::Load restores from the same file — row
//      contents, scalar tests, batch kernels, order lookups, and full
//      XPath evaluation.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "corpus/epoch_view.h"
#include "corpus/labeled_document.h"
#include "durability/crc32.h"
#include "store/catalog.h"
#include "store/label_arena.h"
#include "store/label_table.h"
#include "xml/shakespeare.h"
#include "xpath/evaluator.h"

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

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// LabelArena unit tests.

TEST(LabelArena, RoundTripsMixedMagnitudes) {
  // Zero, single-limb, multi-limb, and a non-minimal input whose trailing
  // zero limbs the builder must strip.
  std::vector<std::vector<std::uint64_t>> rows = {
      {},                       // zero
      {7},                      //
      {0xFFFFFFFFFFFFFFFFull},  // max single limb
      {1, 2, 3, 4, 5},          //
      {9, 0, 0},                // non-minimal: stored as {9}
      {},                       // zero again, mid-sequence
      {0, 0, 1},                // leading-zero limbs are significant
  };
  LabelArenaBuilder builder;
  for (const auto& row : rows) builder.Append(row);
  ASSERT_EQ(builder.rows(), rows.size());

  std::vector<std::uint8_t> image = builder.Encode();
  Result<LabelArena> arena = LabelArena::FromBytes(image, "test");
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  ASSERT_EQ(arena->size(), rows.size());

  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Compare through BigInt so non-minimal inputs normalize the same way.
    BigInt expected = BigInt::FromLimbs(rows[i]);
    BigInt actual = BigInt::FromLimbs((*arena)[i]);
    EXPECT_TRUE(actual == expected) << "row " << i;
  }
  // Zero reads back as the empty span (BigInt::Magnitude's shape).
  EXPECT_TRUE((*arena)[0].empty());
  EXPECT_TRUE((*arena)[5].empty());
}

TEST(LabelArena, SelectCrossesDirectoryBlocks) {
  // >128 rows of varying width so lookups span multiple 64-row directory
  // entries and multiple bitmap words.
  constexpr std::size_t kRows = 300;
  LabelArenaBuilder builder;
  std::vector<std::vector<std::uint64_t>> rows;
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<std::uint64_t> row(i % 4, 0);  // widths 0..3
    for (std::size_t k = 0; k < row.size(); ++k) row[k] = i * 1000 + k + 1;
    rows.push_back(row);
    builder.Append(rows.back());
  }
  std::vector<std::uint8_t> image = builder.Encode();
  Result<LabelArena> arena = LabelArena::FromBytes(image, "test");
  ASSERT_TRUE(arena.ok());
  ASSERT_EQ(arena->size(), kRows);
  // Random-access order, not sequential, to exercise select from scratch.
  for (std::size_t step : std::vector<std::size_t>{1, 7, 63, 64, 65}) {
    for (std::size_t i = 0; i < kRows; i += step) {
      LabelView view = (*arena)[i];
      ASSERT_EQ(view.size(), i % 4 == 0 ? 0u : i % 4) << "row " << i;
      for (std::size_t k = 0; k < view.size(); ++k) {
        EXPECT_EQ(view[k], i * 1000 + k + 1);
      }
    }
  }
}

TEST(LabelArena, RejectsDamagedImages) {
  LabelArenaBuilder builder;
  for (std::uint64_t i = 1; i <= 100; ++i) builder.Append({{i, i + 1}});
  const std::vector<std::uint8_t> good = builder.Encode();
  ASSERT_TRUE(LabelArena::FromBytes(good, "good").ok());

  // Truncations at every interesting boundary.
  for (std::size_t keep : std::vector<std::size_t>{
           0, 8, 15, 16, good.size() / 2, good.size() - 8,
           good.size() - 1}) {
    std::vector<std::uint8_t> cut(good.begin(), good.begin() + keep);
    Result<LabelArena> arena = LabelArena::FromBytes(cut, "cut");
    EXPECT_FALSE(arena.ok()) << "kept " << keep << " bytes";
    if (!arena.ok()) {
      EXPECT_EQ(arena.status().code(), StatusCode::kCorruption);
    }
  }

  // A bitmap whose population count disagrees with the row count.
  std::vector<std::uint8_t> bad = good;
  const std::size_t bitmap_offset = 16 + 200 * 8;  // header + limbs
  bad[bitmap_offset] ^= 0x02;  // clear/set a start bit
  Result<LabelArena> arena = LabelArena::FromBytes(bad, "bitflip");
  EXPECT_FALSE(arena.ok());
  if (!arena.ok()) {
    EXPECT_EQ(arena.status().code(), StatusCode::kCorruption);
  }
}

// ---------------------------------------------------------------------------
// Catalog image integrity.

/// A freshly saved (v5) catalog of a small play, kept at path_ with its
/// bytes in image_.
class SavedCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PlayOptions options;
    options.acts = 2;
    options.scenes_per_act = 2;
    options.min_speeches_per_scene = 2;
    options.max_speeches_per_scene = 4;
    options.seed = 97;
    doc_.emplace(
        LabeledDocument::FromTree(GeneratePlay("v4", options)));
    path_ = TempPath("v4_integrity.plc");
    ASSERT_TRUE(SaveCatalog(path_, *doc_).ok());
    image_ = ReadFileBytes(path_);
    ASSERT_GT(image_.size(), 36u + 6u * 24u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Section directory entry s (0-based): {offset, length} parsed from the
  /// fixed header layout (magic 8, crc 4, config 8, rows 8, group 4,
  /// count 4, then 24-byte entries of id/crc/offset/length).
  std::pair<std::size_t, std::size_t> SectionRange(std::size_t s) const {
    const std::size_t entry = 36 + s * 24;
    auto u64_at = [&](std::size_t off) {
      std::uint64_t v = 0;
      for (int b = 7; b >= 0; --b) v = (v << 8) | image_[off + b];
      return v;
    };
    return {static_cast<std::size_t>(u64_at(entry + 8)),
            static_cast<std::size_t>(u64_at(entry + 16))};
  }

  /// Both entry points must report kCorruption for the image at `path`;
  /// OpenCatalogMapped must not quietly re-encode a damaged file (for v4,
  /// which it converts, the damage must stop the conversion).
  void ExpectCorrupt(const std::string& context) {
    Result<CatalogState> decoded = LoadCatalog(DefaultVfs(), path_);
    EXPECT_FALSE(decoded.ok()) << context;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << context << ": " << decoded.status().ToString();
    }
    Result<LoadedCatalog> mapped = OpenCatalogMapped(DefaultVfs(), path_);
    EXPECT_FALSE(mapped.ok()) << context;
    if (!mapped.ok()) {
      EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption)
          << context << ": " << mapped.status().ToString();
    }
  }

  std::optional<LabeledDocument> doc_;
  std::string path_;
  std::vector<std::uint8_t> image_;
};

/// The integrity checks run over two images, by format version: 5, the
/// fresh save, served in place; 4, the committed v4 fixture copied to
/// path_, converted on open. Both share the header and section layout.
class CatalogV4Test : public SavedCatalogTest,
                      public ::testing::WithParamInterface<int> {
 protected:
  void SetUp() override {
    SavedCatalogTest::SetUp();
    if (GetParam() == 4) {
      image_ = ReadFileBytes(std::string(PRIMELABEL_TEST_DATA_DIR) +
                             "/catalog_formats/v4.plc");
      ASSERT_GT(image_.size(), 36u + 6u * 24u);
      WriteFileBytes(path_, image_);
    }
    ASSERT_EQ(image_[7], '0' + GetParam());
  }
};

TEST_P(CatalogV4Test, EverySectionDigestCatchesAByteFlip) {
  // One flip inside each of the six sections, plus the header scalars and
  // the directory itself (covered by the header CRC).
  std::vector<std::pair<std::string, std::size_t>> targets = {
      {"header row_count", 20},
      {"directory entry", 36 + 2 * 24 + 8},
  };
  for (std::size_t s = 0; s < 6; ++s) {
    auto [offset, length] = SectionRange(s);
    ASSERT_GT(length, 0u) << "section " << s + 1;
    ASSERT_LE(offset + length, image_.size());
    targets.emplace_back("section " + std::to_string(s + 1) + " first byte",
                         offset);
    targets.emplace_back("section " + std::to_string(s + 1) + " mid byte",
                         offset + length / 2);
    targets.emplace_back("section " + std::to_string(s + 1) + " last byte",
                         offset + length - 1);
  }
  for (const auto& [context, position] : targets) {
    std::vector<std::uint8_t> tampered = image_;
    tampered[position] ^= 0x40;
    WriteFileBytes(path_, tampered);
    ExpectCorrupt(context + " @ " + std::to_string(position));
  }
  // Sanity: the pristine image still opens after the scan.
  WriteFileBytes(path_, image_);
  EXPECT_TRUE(OpenCatalogMapped(DefaultVfs(), path_).ok());
}

TEST_P(CatalogV4Test, TruncationFailsTyped) {
  for (std::size_t keep : std::vector<std::size_t>{
           0, 7, 35, 36 + 3 * 24, image_.size() / 3, image_.size() / 2,
           image_.size() - 8, image_.size() - 1}) {
    std::vector<std::uint8_t> cut(image_.begin(), image_.begin() + keep);
    WriteFileBytes(path_, cut);
    Result<LoadedCatalog> mapped = OpenCatalogMapped(DefaultVfs(), path_);
    ASSERT_FALSE(mapped.ok()) << "kept " << keep << " bytes";
    // Once the magic survives, any shorter length is kCorruption; below
    // that the file is not identifiable as a catalog at all and the
    // version dispatch reports its usual kParseError.
    EXPECT_EQ(mapped.status().code(),
              keep >= 8 ? StatusCode::kCorruption : StatusCode::kParseError)
        << "kept " << keep << ": " << mapped.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(SavedV5AndFixtureV4, CatalogV4Test,
                         ::testing::Values(5, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param);
                         });

TEST_F(SavedCatalogTest, ImplausibleScRecordCountFailsTyped) {
  // SCMETA opens with its record count. A crafted count whose section
  // and header digests are recomputed, so that only the count is wrong,
  // must fail the open before it sizes anything: every record needs at
  // least its 4-byte entry count, so the section's bytes bound the count.
  auto [offset, length] = SectionRange(4);  // SCMETA
  auto put = [&](std::size_t at, std::uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      image_[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
  };
  put(offset, (length - 8) / 4 + 1, 8);  // one more than the bytes can hold
  put(36 + 4 * 24 + 4, Crc32(std::span(image_).subspan(offset, length)), 4);
  put(8, Crc32(std::span(image_).subspan(12, 36 + 6 * 24 - 12)), 4);
  WriteFileBytes(path_, image_);
  ExpectCorrupt("SCMETA record count");
  Result<LoadedCatalog> mapped = OpenCatalogMapped(DefaultVfs(), path_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("implausible SC record count"),
            std::string::npos)
      << mapped.status().ToString();
}

TEST(CatalogV4Test, MissingFileIsNotFound) {
  Result<LoadedCatalog> mapped =
      OpenCatalogMapped(DefaultVfs(), TempPath("no_such_catalog.plc"));
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound)
      << mapped.status().ToString();
}

// ---------------------------------------------------------------------------
// Arena-vs-heap bit-identity: the mapped image against the heap document
// LabeledDocument::Load restores from the same file (NodeId == row index
// on both sides).

class ArenaHeapEquivalenceTest : public SavedCatalogTest {
 protected:
  void SetUp() override {
    SavedCatalogTest::SetUp();
    Result<LabeledDocument> heap = LabeledDocument::Load(path_);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_.emplace(std::move(heap.value()));
    Result<LoadedCatalog> arena = OpenCatalogMapped(DefaultVfs(), path_);
    ASSERT_TRUE(arena.ok()) << arena.status().ToString();
    arena_.emplace(std::move(arena.value()));
    ASSERT_EQ(arena_->row_count(), heap_->tree().node_count());
  }

  const XmlTree& tree() const { return heap_->tree(); }
  const OrderedPrimeScheme& scheme() const { return heap_->scheme(); }

  std::optional<LabeledDocument> heap_;
  std::optional<LoadedCatalog> arena_;
};

TEST_F(ArenaHeapEquivalenceTest, RowAccessorsMatch) {
  for (std::size_t i = 0; i < arena_->row_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(arena_->tag_of(id), tree().name(id)) << i;
    EXPECT_EQ(arena_->is_element_of(id), tree().IsElement(id)) << i;
    // The root's parent is -1 on both sides (kInvalidNodeId).
    EXPECT_EQ(arena_->parent_of(id), tree().parent(id)) << i;
    EXPECT_EQ(arena_->attributes_of(id), tree().node(id).attributes) << i;
    EXPECT_EQ(arena_->self_of(id), scheme().structure().self_label(id)) << i;
    LabelView a = arena_->label_view(id);
    LabelView h = scheme().structure().label(id).Magnitude();
    ASSERT_EQ(a.size(), h.size()) << i;
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], h[k]) << i;
  }
}

TEST_F(ArenaHeapEquivalenceTest, ScalarOracleAnswersMatch) {
  const std::size_t n = arena_->row_count();
  for (std::size_t x = 0; x < n; ++x) {
    EXPECT_EQ(arena_->OrderOf(x), scheme().OrderOf(x)) << x;
    for (std::size_t y = 0; y < n; ++y) {
      EXPECT_EQ(arena_->IsAncestor(x, y), scheme().IsAncestor(x, y))
          << x << " " << y;
      EXPECT_EQ(arena_->IsParent(x, y), scheme().IsParent(x, y))
          << x << " " << y;
    }
  }
}

TEST_F(ArenaHeapEquivalenceTest, BatchKernelsMatch) {
  const std::size_t n = arena_->row_count();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<NodeId> candidates;
  for (std::size_t x = 0; x < n; x += 2) {
    pairs.emplace_back(static_cast<NodeId>(x),
                       static_cast<NodeId>((x * 7 + 3) % n));
    candidates.push_back(static_cast<NodeId>((x * 5 + 1) % n));
  }
  std::vector<std::uint8_t> heap_bits, arena_bits;
  scheme().IsAncestorBatch(pairs, &heap_bits);
  arena_->IsAncestorBatch(pairs, &arena_bits);
  EXPECT_EQ(arena_bits, heap_bits);

  for (NodeId anchor : {NodeId{0}, NodeId{1}, static_cast<NodeId>(n / 2)}) {
    std::vector<NodeId> heap_desc, arena_desc, heap_anc, arena_anc;
    scheme().SelectDescendants(anchor, candidates, &heap_desc);
    arena_->SelectDescendants(anchor, candidates, &arena_desc);
    EXPECT_EQ(arena_desc, heap_desc) << "anchor " << anchor;
    scheme().SelectAncestors(anchor, candidates, &heap_anc);
    arena_->SelectAncestors(anchor, candidates, &arena_anc);
    EXPECT_EQ(arena_anc, heap_anc) << "anchor " << anchor;
  }
}

TEST_F(ArenaHeapEquivalenceTest, XPathEvaluationMatchesLiveDocument) {
  // Same query pipeline three ways: the live document, the restored
  // document's label table + scheme, and a LabelTable + oracle built over
  // the mapped catalog — the last two through the walking evaluator.
  LabelTable arena_table(*arena_);
  QueryContext heap_ctx;
  heap_ctx.table = &heap_->label_table();
  heap_ctx.oracle = &scheme();
  QueryContext arena_ctx;
  arena_ctx.table = &arena_table;
  arena_ctx.oracle = &*arena_;
  for (const char* q :
       {"/play", "/play//act", "//speech/speaker", "/play//scene[2]",
        "//act[1]//speech", "//line"}) {
    Result<std::vector<NodeId>> live = doc_->Query(q);
    ASSERT_TRUE(live.ok()) << q;
    Result<std::vector<NodeId>> heap_ids =
        XPathEvaluator(&heap_ctx).Evaluate(q);
    Result<std::vector<NodeId>> arena_ids =
        XPathEvaluator(&arena_ctx).Evaluate(q);
    ASSERT_TRUE(heap_ids.ok()) << q;
    ASSERT_TRUE(arena_ids.ok()) << q;
    EXPECT_EQ(arena_ids.value(), heap_ids.value()) << q;
    // Rows are preorder, so catalog NodeIds equal live-tree preorder
    // ranks; compare result cardinality against the live document.
    EXPECT_EQ(arena_ids.value().size(), live.value().size()) << q;
  }
}

TEST_F(ArenaHeapEquivalenceTest, MappedAndRowBuiltViewsAgree) {
  // The two ways a view gets its image: the mapped file a sealed epoch is
  // served from, and the owned image FromRows encodes from a replayed
  // document's rows — here the document Load restores from that file.
  Result<LoadedCatalog> mapped = OpenCatalogMapped(DefaultVfs(), path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  Result<LoadedCatalog> built = LoadedCatalog::FromRows(
      heap_->ToCatalogRows(), scheme().sc_table(), "replayed rows");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const EpochView mapped_view(std::move(mapped.value()));
  const EpochView built_view(std::move(built.value()));

  const std::size_t n = mapped_view.node_count();
  ASSERT_EQ(built_view.node_count(), n);
  ASSERT_EQ(n, tree().node_count());
  // Both count the same columns: the image's label, SC value and
  // fingerprint columns plus the order column.
  EXPECT_GT(mapped_view.label_store_bytes(), 0u);
  EXPECT_EQ(built_view.label_store_bytes(), mapped_view.label_store_bytes());
  for (std::size_t x = 0; x < n; ++x) {
    const NodeId id = static_cast<NodeId>(x);
    EXPECT_EQ(mapped_view.oracle().OrderOf(id), scheme().OrderOf(id)) << x;
    EXPECT_EQ(built_view.oracle().OrderOf(id), scheme().OrderOf(id)) << x;
  }
  for (const char* q :
       {"/play//act", "//speech/speaker", "//line", "//act//speech/speaker",
        "//speech//Following::line", "/play//scene[2]//Preceding::speech"}) {
    Result<std::vector<NodeId>> m = mapped_view.Query(q, /*num_workers=*/1);
    Result<std::vector<NodeId>> b = built_view.Query(q, /*num_workers=*/1);
    Result<std::vector<NodeId>> live = heap_->Query(q);
    ASSERT_TRUE(m.ok()) << q;
    ASSERT_TRUE(b.ok()) << q;
    ASSERT_TRUE(live.ok()) << q;
    EXPECT_EQ(b.value(), m.value()) << q;
    EXPECT_EQ(m.value(), live.value()) << q;
  }
  // The lazy documents rebuild the same tree, labels and orders.
  for (const EpochView* view : {&mapped_view, &built_view}) {
    const LabeledDocument& doc = view->document();
    ASSERT_EQ(doc.tree().node_count(), n);
    for (std::size_t x = 0; x < n; ++x) {
      const NodeId id = static_cast<NodeId>(x);
      EXPECT_EQ(doc.tree().name(id), tree().name(id)) << x;
      EXPECT_EQ(doc.scheme().structure().label(id),
                scheme().structure().label(id))
          << x;
      EXPECT_EQ(doc.scheme().OrderOf(id), scheme().OrderOf(id)) << x;
    }
  }
}

}  // namespace
}  // namespace primelabel
