#ifndef PRIMELABEL_STORE_CATALOG_H_
#define PRIMELABEL_STORE_CATALOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/reduction.h"
#include "core/sc_table.h"
#include "core/structure_oracle.h"
#include "durability/vfs.h"
#include "store/label_arena.h"
#include "util/binio.h"
#include "util/status.h"

namespace primelabel {

/// On-disk catalog of a prime-labeled document.
///
/// The paper's storage model keeps (tag, label) rows in a relational table
/// plus the SC table; restarting the system must not require relabeling.
/// The catalog persists exactly that: one row per attached node (tag,
/// parent row, attributes, prime label bytes, self-label) and the SC
/// records, in a little-endian binary format with a magic/version header.
///
/// Format v2 ("PLCATLG2") adds per-row attributes so a LabeledDocument can
/// be reconstructed losslessly. Format v3 ("PLCATLG3") additionally
/// persists each row's divisibility fingerprint (as a 72-byte image whose
/// first 56 bytes are chunk residues no reader needs) together with a
/// hash of the fingerprint configuration, so loading skips the per-row
/// FingerprintOf pass; a file whose config hash does not match the
/// running binary falls back to recomputing. v2, v3 and v4 are read-only:
/// they stay loadable (v2 fingerprints recomputed, v3/v4 fingerprints
/// taken from the last 16 bytes of each image), but WriteCatalog emits v5
/// only. Anything else is rejected with a kParseError naming the found
/// and supported versions.
///
/// Formats v4 ("PLCATLG4") and v5 ("PLCATLG5") are columnar and zero-copy
/// (DESIGN.md §15). The row-interleaved stream of v2/v3 is split into
/// CRC-digested sections, each 8-byte aligned within the file:
///
///   header     magic, header CRC, fingerprint config hash, row count,
///              SC group size, section directory (id, crc32, offset,
///              length per section)
///   ROWMETA    per-row tag / element flag / parent / attributes stream
///   SELF       row_count little-endian u64 self-labels
///   LABELS     a LabelArena image of the label magnitudes
///   FPS        row_count 16-byte LabelFingerprint images (v4: 72-byte
///              images with the residues in front)
///   SCMETA     per SC record, its moduli (v4: (modulus, order) pairs);
///              each order is recovered as sc mod modulus
///   SCVALS     a LabelArena image of the records' SC magnitudes
///
/// The column split is what makes the file mmap-able: SELF, LABELS, FPS
/// and SCVALS are exactly the in-memory representation on little-endian
/// hosts, so OpenCatalogMapped serves a v5 file straight out of the
/// mapped bytes — no per-row decode, no per-label allocation, and the
/// kernel shares one physical copy across every process and epoch view.
/// Section digests are verified eagerly on open; any flipped byte
/// surfaces as kCorruption before a query can read it.

/// Newest format WriteCatalog emits, and the ceiling LoadCatalog accepts.
inline constexpr int kCatalogFormatVersion = 5;
/// Oldest format LoadCatalog still reads.
inline constexpr int kCatalogMinSupportedVersion = 2;

struct CatalogRow {
  std::string tag;          ///< element tag or text content
  bool is_element = true;
  std::int64_t parent = -1;  ///< row index of the parent, -1 for the root
  /// Attribute key/value pairs in document order (elements only).
  std::vector<std::pair<std::string, std::string>> attributes;
  BigInt label;              ///< full prime label
  std::uint64_t self = 1;    ///< self-label (prime; 1 for the root)
  /// Divisibility fingerprint of `label`. Persisted by formats v3 to v5;
  /// meaningless when CatalogState::fingerprints_valid is false.
  LabelFingerprint fingerprint;
};

/// A catalog's decoded contents: what recovery, delta replay and
/// LabeledDocument::Load rebuild a mutable document from.
struct CatalogState {
  std::vector<CatalogRow> rows;  ///< preorder, parent by row index
  ScTable sc_table;
  /// True when every row's fingerprint is adoptable as-is (v3 to v5 file
  /// with a matching config hash, or a delta chain built from one); false
  /// means the consumer must derive the fingerprints from the labels.
  bool fingerprints_valid = false;
};

/// One row's tree fields, as CheckRowStructure reads them.
struct RowLink {
  bool is_element = true;
  std::int64_t parent = -1;
  LimbSpan label;
  std::uint64_t self = 1;
};

/// Checks the tree structure of `count` rows, `link(i)` giving row i's
/// fields: row 0 is an element with parent -1 and label 1, the rows are in
/// preorder (every later row's parent is on the path from the root to the
/// row before it), and every later row's label is its parent's label
/// times its self-label. Queries walk those parents and decide ancestry
/// by divisibility, so a row that breaks them could loop a query, index
/// past the rows, or answer against another tree than the one the rows
/// describe. Every row decoder runs it (the image open, the v2/v3 branch
/// of LoadCatalog and LabeledDocument::FromCatalogRows); kCorruption
/// names the first row that fails, after `origin`.
Status CheckRowStructure(std::size_t count,
                         const std::function<RowLink(std::size_t)>& link,
                         const std::string& origin);
/// CheckRowStructure over decoded rows.
Status CheckRowStructure(const std::vector<CatalogRow>& rows,
                         const std::string& origin);

/// A catalog served for reading: a v5 image, able to answer structure and
/// order queries from the stored labels alone (no XmlTree needed).
///
/// Implements StructureOracle over NodeId handles: rows are written in
/// preorder, so the NodeId of a node in the reconstructed tree equals its
/// row index — the same handle vocabulary the live schemes use, which is
/// what lets one query pipeline (and one test suite) run against both.
///
/// Labels, SC values and fingerprints stay read-only views into the
/// image, which is either an mmap shared with other views
/// (OpenCatalogMapped over a v5 file) or an owned buffer (FromRows, which
/// also serves a v2/v3/v4 file, or a stale fingerprint config, converted
/// on open). BigInts are materialized only at the explicit Materialize*
/// edges. The batch kernels are the ones the live scheme runs
/// (core/batch_kernels.h), over the image's limb spans.
class LoadedCatalog : public StructureOracle {
 public:
  /// Encodes `rows` (preorder, parents by row index, each carrying its
  /// fingerprint) and `sc_table` as a v5 image held in memory, and parses
  /// it with every check a mapped file gets. `origin` names the image in
  /// errors.
  static Result<LoadedCatalog> FromRows(const std::vector<CatalogRow>& rows,
                                        const ScTable& sc_table,
                                        const std::string& origin);

  std::size_t row_count() const { return meta_.size(); }

  /// Per-row accessors (NodeId == row index).
  const std::string& tag_of(NodeId id) const { return meta_[id].tag; }
  bool is_element_of(NodeId id) const { return meta_[id].is_element; }
  std::int64_t parent_of(NodeId id) const { return meta_[id].parent; }
  const std::vector<std::pair<std::string, std::string>>& attributes_of(
      NodeId id) const {
    return meta_[id].attributes;
  }
  std::uint64_t self_of(NodeId id) const { return selfs_[id]; }
  /// The row's label magnitude as a limb view straight into the image.
  /// Valid while the catalog lives.
  LabelView label_view(NodeId id) const { return labels_[id]; }

  /// Resident bytes devoted to the label store: the image's label, SC
  /// value and fingerprint columns (shared, under mmap, with every other
  /// view of the same file) plus the order column the open derives. The
  /// STATS wire field and the memory benches report this.
  std::size_t label_store_bytes() const;

  /// Format version of the file this catalog was opened from.
  int format_version() const { return format_version_; }
  /// True when the on-disk fingerprints were adopted verbatim; false when
  /// they were recomputed (v2 file, or v3 to v5 with a stale config hash).
  bool fingerprints_persisted() const { return fingerprints_persisted_; }

  /// Non-destructive materialization of full heap rows / SC table — what
  /// a sealed view hands to LabeledDocument when a caller genuinely needs
  /// a mutable document. The SC table adopts the stored SC values and
  /// derives its orders from them; kCorruption when a record is not one a
  /// solve would give (ScTable::FromRecords).
  std::vector<CatalogRow> MaterializeRows() const;
  Result<ScTable> MaterializeScTable() const;

  /// Declares the expected access pattern on the backing image
  /// (madvise): kSequential ahead of a front-to-back sweep, kRandom for
  /// point-lookup serving. No-op on an owned-bytes backing, so callers
  /// hint unconditionally.
  void AdviseAccess(AccessHint hint) const {
    if (mapped_ != nullptr) mapped_->Advise(hint);
  }

  /// Divisibility ancestor test over stored labels, behind the same
  /// fingerprint screen the batch kernels run.
  bool IsAncestor(NodeId x, NodeId y) const override;
  /// Parent test: label(y) == label(x) * self(y), compared limb by limb.
  bool IsParent(NodeId x, NodeId y) const override;
  /// Global order number (root = 0): a read of the order column.
  std::uint64_t OrderOf(NodeId row) const override { return orders_[row]; }

  /// Batched queries on the shared kernels: fingerprint rejection plus
  /// per-anchor reciprocal caching, bit-identical to the scalar tests.
  void IsAncestorBatch(std::span<const std::pair<NodeId, NodeId>> pairs,
                       std::vector<std::uint8_t>* results) const override;
  void SelectDescendants(NodeId ancestor, std::span<const NodeId> candidates,
                         std::vector<NodeId>* out) const override;
  void SelectAncestors(NodeId descendant, std::span<const NodeId> candidates,
                       std::vector<NodeId>* out) const override;

 private:
  /// Uninitialized shell for the open paths, which fill the views in
  /// place (ParseImage).
  LoadedCatalog() = default;

  /// Parses a v4 or v5 image (the caller has checked the magic): validates
  /// header and section digests, opens the column views over `bytes`
  /// (which must outlive `out` — the caller attaches the backing), decodes
  /// the row/SC metadata and derives the order column. kCorruption on any
  /// digest or shape mismatch, on an SC modulus below 2, held twice or
  /// held by no row, and on a non-root row whose self-label no SC record
  /// holds.
  static Status ParseImage(std::span<const std::uint8_t> bytes,
                           const std::string& origin, LoadedCatalog* out);

  /// Compact per-row metadata decoded from the ROWMETA section —
  /// everything CatalogRow holds except the big columns.
  struct RowMeta {
    std::string tag;
    std::vector<std::pair<std::string, std::string>> attributes;
    std::int64_t parent = -1;
    bool is_element = true;
  };

  /// The label column the batch kernels read.
  struct Column {
    const LabelArena& labels;
    const LabelFingerprint* fps;
    LimbSpan label(NodeId id) const { return labels[id]; }
    const LabelFingerprint& fingerprint(NodeId id) const { return fps[id]; }
  };
  Column column() const { return Column{labels_, fps_}; }

  // Views into the image plus the backing that keeps the image alive
  // (exactly one of owned_bytes_/mapped_ is engaged). The pointers
  // survive moves — they target the image, which transfers with the
  // object.
  std::vector<std::uint8_t> owned_bytes_;
  std::unique_ptr<MappedRegion> mapped_;
  LabelArena labels_;
  LabelArena sc_values_;
  const LabelFingerprint* fps_ = nullptr;    ///< FPS column
  const std::uint64_t* selfs_ = nullptr;     ///< SELF column
  /// A v4 image's fingerprints, cut from its 72-byte FPS entries (fps_
  /// points here). Only LoadCatalog parses v4; empty for v5.
  std::vector<LabelFingerprint> v4_fps_;
  std::vector<RowMeta> meta_;
  /// SC record shapes (moduli only; orders and sc left empty — the
  /// magnitudes stay in sc_values_).
  std::vector<ScRecord> sc_meta_;
  /// Per row, its global order: sc mod self of the record holding its
  /// self-label (Section 4.1), derived once at open; 0 for the root.
  std::vector<std::uint64_t> orders_;
  int sc_group_size_ = 5;

  int format_version_ = kCatalogFormatVersion;
  bool fingerprints_persisted_ = false;

  friend Result<CatalogState> LoadCatalog(Vfs& vfs, const std::string& path);
  friend Result<LoadedCatalog> OpenCatalogMapped(Vfs& vfs,
                                                 const std::string& path);
};

/// How a persisted row image carries its fingerprint: not at all (v2
/// rows), as the 72-byte image of v3 rows and PLDELTA1 patches (seven
/// chunk residues, then the fingerprint), or as the 16-byte fingerprint
/// image alone (PLDELTA2 patches).
enum class RowFingerprint { kNone, kResidueImage, kImage };

/// Row/record codecs of the row-interleaved formats: the v2/v3 catalog
/// readers and the delta snapshot format (durability/delta.h).
/// `with_fingerprint` appends the 16-byte fingerprint image; the decoder
/// reads any RowFingerprint shape and keeps only the fingerprint.
void EncodeCatalogRow(const CatalogRow& row, bool with_fingerprint,
                      ByteWriter* out);
Status DecodeCatalogRow(ByteReader* in, RowFingerprint fingerprint,
                        CatalogRow* row);
/// Fewest bytes one row image takes (an empty tag, no attributes, a zero
/// label), so a reader can bound an untrusted row count by the bytes left
/// before reserving for it.
std::size_t MinCatalogRowBytes(RowFingerprint fingerprint);
/// Writes a record's moduli and SC value. The decoder reads that shape,
/// or, `with_orders`, the v2/v3 and PLDELTA1 shape that stores an order
/// after every modulus: each stored order must be sc mod its modulus
/// (kCorruption otherwise), and is then dropped, since ScTable derives
/// orders as sc mod modulus.
void EncodeScRecord(const ScRecord& record, ByteWriter* out);
Status DecodeScRecord(ByteReader* in, bool with_orders, ScRecord* record);

/// Writes a v5 catalog: rows must be in document order with parents
/// referenced by row index, each carrying its fingerprint. Document-level
/// callers go through SaveCatalog(path, LabeledDocument) in corpus/, which
/// assembles the rows. The image is assembled in memory and handed to the
/// Vfs as one write + fsync.
Status WriteCatalog(Vfs& vfs, const std::string& path,
                    const std::vector<CatalogRow>& rows,
                    const ScTable& sc_table);

/// Decodes a catalog of any supported version into its rows and SC table
/// — the loader of recovery, delta replay and LabeledDocument::Load.
/// Fails with kParseError on a bad magic, an unsupported version (the
/// message names found vs. supported versions), or a truncated or
/// implausible v2/v3 file; a v4/v5 file whose section digests do not
/// match, or any file whose SC records do not solve, fails with
/// kCorruption.
Result<CatalogState> LoadCatalog(Vfs& vfs, const std::string& path);

/// Opens a catalog for serving. A v5 file whose fingerprint config
/// matches this binary is served zero-copy over Vfs::MapReadOnly —
/// section digests verified eagerly, then queries run straight out of the
/// mapped image. A v2/v3/v4 file, or a v5 file with a stale fingerprint
/// config, is decoded with LoadCatalog, fingerprinted if needed, and
/// re-encoded by LoadedCatalog::FromRows as a v5 image held in memory, so
/// every caller gets the same image-backed catalog. Corruption is never
/// converted: a v4/v5 file with a bad digest fails with kCorruption.
Result<LoadedCatalog> OpenCatalogMapped(Vfs& vfs, const std::string& path);

}  // namespace primelabel

#endif  // PRIMELABEL_STORE_CATALOG_H_
