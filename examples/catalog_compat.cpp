// Catalog format-compatibility checker: proves that one document answers
// every oracle query bit-identically whichever catalog format stored it
// and however it is opened.
//
// The walk: for each committed older-format fixture
// (tests/data/catalog_formats/v2.plc, v3.plc and v4.plc — formats this
// build reads but does not write), open three ways — LabeledDocument::Load
// (the live scheme over the restored labels, the reference),
// OpenCatalogMapped of the file (converted on open to an in-memory v5
// image), and OpenCatalogMapped of the document re-saved as v5 (served
// from the mmap) — then diff the complete observable state against the
// DIGEST.txt recorded with the fixtures, plus a sweep of scalar and
// batched oracle answers. Every row's fingerprint, in the document and in
// the converted image, must equal FingerprintOf(label): the digest never
// reads a fingerprint, and both oracles would share a wrongly adopted
// one. Any divergence is a bug in the format readers, the converter or
// the shared batch kernels; the process exits non-zero naming the first
// mismatch.
//
// scripts/check.sh runs this in both the vectorized and the scalar-only
// trees, so the diff also covers both kernel dispatch families.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "corpus/labeled_document.h"
#include "store/catalog.h"

#ifndef PRIMELABEL_TEST_DATA_DIR
#define PRIMELABEL_TEST_DATA_DIR "tests/data"
#endif

using namespace primelabel;

namespace {

/// One row of observable state in DIGEST.txt's line format.
std::string DigestLine(
    const std::string& tag, bool is_element, std::int64_t parent,
    std::uint64_t self, const BigInt& label, std::uint64_t order,
    const std::vector<std::pair<std::string, std::string>>& attributes) {
  std::string line = tag + '|' + (is_element ? "1" : "0") + '|' +
                     std::to_string(parent) + '|' + std::to_string(self) +
                     '|' + label.ToHexString() + '|' + std::to_string(order);
  for (const auto& [key, value] : attributes) {
    line += '|' + key + '=' + value;
  }
  return line + '\n';
}

/// Complete observable state: equal digests mean equal answers to every
/// tag/structure/attribute/order lookup. A restored document's NodeIds
/// are its row indices, like a catalog's.
std::string Digest(const LabeledDocument& doc) {
  const XmlTree& tree = doc.tree();
  const PrimeTopDownScheme& structure = doc.scheme().structure();
  std::string out;
  for (NodeId id = 0; id < static_cast<NodeId>(tree.node_count()); ++id) {
    out += DigestLine(tree.name(id), tree.IsElement(id), tree.parent(id),
                      structure.self_label(id), structure.label(id),
                      doc.scheme().OrderOf(id), tree.node(id).attributes);
  }
  return out;
}

std::string Digest(const LoadedCatalog& catalog) {
  std::string out;
  for (std::size_t i = 0; i < catalog.row_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    out += DigestLine(catalog.tag_of(id), catalog.is_element_of(id),
                      catalog.parent_of(id), catalog.self_of(id),
                      BigInt::FromLimbs(catalog.label_view(id)),
                      catalog.OrderOf(id), catalog.attributes_of(id));
  }
  return out;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "catalog_compat: MISMATCH: %s\n", what.c_str());
  return 1;
}

/// True when every row's fingerprint in the document and in the catalog's
/// image is the one FingerprintOf derives from the row's label.
bool FingerprintsAreDerived(const LabeledDocument& doc,
                            const LoadedCatalog& catalog) {
  const std::vector<CatalogRow> rows = catalog.MaterializeRows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LabelFingerprint derived = FingerprintOf(rows[i].label);
    if (rows[i].fingerprint != derived) return false;
    if (doc.scheme().structure().fingerprint(static_cast<NodeId>(i)) !=
        derived) {
      return false;
    }
  }
  return true;
}

/// Scalar + batched oracle sweep over the first `n` NodeIds of `a` and
/// `b`; returns false on the first disagreement.
bool OraclesAgree(const StructureOracle& a, const StructureOracle& b,
                  std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<NodeId> candidates;
  for (std::size_t x = 0; x < n; x += 2) {
    pairs.emplace_back(static_cast<NodeId>(x),
                       static_cast<NodeId>((x * 7 + 3) % n));
    candidates.push_back(static_cast<NodeId>((x * 5 + 1) % n));
  }
  for (std::size_t x = 0; x < n; x += 5) {
    for (std::size_t y = 0; y < n; y += 3) {
      if (a.IsAncestor(x, y) != b.IsAncestor(x, y)) return false;
      if (a.IsParent(x, y) != b.IsParent(x, y)) return false;
    }
  }
  std::vector<std::uint8_t> bits_a, bits_b;
  a.IsAncestorBatch(pairs, &bits_a);
  b.IsAncestorBatch(pairs, &bits_b);
  if (bits_a != bits_b) return false;
  for (NodeId anchor : {NodeId{0}, static_cast<NodeId>(n / 2)}) {
    std::vector<NodeId> desc_a, desc_b, anc_a, anc_b;
    a.SelectDescendants(anchor, candidates, &desc_a);
    b.SelectDescendants(anchor, candidates, &desc_b);
    if (desc_a != desc_b) return false;
    a.SelectAncestors(anchor, candidates, &anc_a);
    b.SelectAncestors(anchor, candidates, &anc_b);
    if (anc_a != anc_b) return false;
  }
  return true;
}

}  // namespace

int main() {
  const std::string fixtures =
      std::string(PRIMELABEL_TEST_DATA_DIR) + "/catalog_formats";
  std::ifstream digest_file(fixtures + "/DIGEST.txt", std::ios::binary);
  std::ostringstream recorded;
  recorded << digest_file.rdbuf();
  const std::string expected = recorded.str();
  if (expected.empty()) return Fail("cannot read " + fixtures + "/DIGEST.txt");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "plcatalog-compat").string();
  std::filesystem::create_directories(dir);
  for (int version : {2, 3, 4}) {
    const std::string name = std::string("v").append(std::to_string(version));
    const std::string source = fixtures + "/" + name + ".plc";
    Result<LabeledDocument> doc = LabeledDocument::Load(source);
    if (!doc.ok()) return Fail(name + " document load failed");
    Result<LoadedCatalog> converted = OpenCatalogMapped(DefaultVfs(), source);
    if (!converted.ok()) return Fail(name + " converting open failed");
    const std::string resaved = dir + "/" + name + "-as-v5.plc";
    if (!doc->Save(resaved).ok()) return Fail(name + " v5 re-save failed");
    Result<LoadedCatalog> mapped = OpenCatalogMapped(DefaultVfs(), resaved);
    if (!mapped.ok()) return Fail(name + " mapped open of the re-save failed");

    if (converted->format_version() != version) {
      return Fail(name + " version tag");
    }
    // A v5 file with current fingerprints is the one shape served in
    // place from the mapping.
    if (mapped->format_version() != 5 || !mapped->fingerprints_persisted()) {
      return Fail(name + " re-save was not served from the mapping");
    }
    if (Digest(*doc) != expected) return Fail(name + " document digest");
    if (Digest(*converted) != expected) {
      return Fail(name + " converted image digest");
    }
    if (Digest(*mapped) != expected) return Fail(name + " mapped v5 digest");
    if (!FingerprintsAreDerived(*doc, *converted)) {
      return Fail(name + " fingerprints differ from FingerprintOf(label)");
    }
    const std::size_t rows = converted->row_count();
    if (!OraclesAgree(doc->scheme(), *converted, rows)) {
      return Fail(name + " converted image vs document oracle");
    }
    if (!OraclesAgree(doc->scheme(), *mapped, rows)) {
      return Fail(name + " mapped v5 vs document oracle");
    }
    std::printf(
        "catalog_compat: %s: %zu rows agree across document, converted "
        "image and mapped v5 re-save (label store %zu bytes)\n",
        name.c_str(), rows, mapped->label_store_bytes());
  }
  std::filesystem::remove_all(dir);
  return 0;
}
