#ifndef PRIMELABEL_CORPUS_DURABLE_DOCUMENT_STORE_H_
#define PRIMELABEL_CORPUS_DURABLE_DOCUMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/epoch_view.h"
#include "corpus/labeled_document.h"
#include "durability/delta.h"
#include "durability/epoch.h"
#include "durability/recovery.h"
#include "durability/vfs.h"
#include "durability/wal.h"
#include "util/status.h"

namespace primelabel {

/// A frozen, shareable read view of a durable store: the RAII EpochPin
/// that keeps the pinned epoch's files alive, an EpochView of exactly the
/// pinned (epoch, committed journal bytes) point, and the label-only
/// StructureOracle over it — the read surface the service layer exposes.
///
/// Every view is a v5 catalog image (corpus/epoch_view.h). A sealed
/// epoch — full snapshot, no journal frames — is served from the snapshot
/// the store wrote, mmapped and shared (an older-format snapshot is
/// converted to an in-memory image first). A point with journal frames on
/// top, or a delta epoch, is replayed into a document whose rows are then
/// encoded as an owned image. Either way NodeIds are the preorder ranks
/// of the pinned point, so ids are valid only within the snapshot that
/// produced them: they renumber whenever the point moves.
///
/// The view is held by shared_ptr<const ...>: when several sessions pin
/// the same point through a view cache they share ONE materialization
/// instead of re-running recovery per reader. The view builds its label
/// table up front and its document under a once flag, so everything
/// reachable from a Snapshot is immutable and every member here —
/// document(), oracle(), Query() — is safe to call concurrently from any
/// number of threads.
///
/// Move-only; destroying (or moving from) the snapshot drops its pin,
/// which lets the registry retire whatever files the pin alone kept.
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;

  bool valid() const { return view_ != nullptr; }
  std::uint64_t epoch() const { return pin_.epoch(); }
  /// Committed journal length the view replays to; frames the writer
  /// appended after the pin are invisible.
  std::uint64_t journal_bytes() const { return pin_.journal_bytes(); }
  /// The pin backing this snapshot (tests re-materialize through it to
  /// prove cached views are bit-identical to a fresh rebuild).
  const EpochPin& pin() const { return pin_; }

  /// The frozen document, materialized lazily on first call
  /// (thread-safe, at most once); query paths never need it.
  /// Valid exactly as long as some snapshot (or the view cache) shares
  /// the view — callers may keep the shared_ptr from view() beyond the
  /// snapshot's lifetime, though the pin's file-retention guarantee ends
  /// with the snapshot.
  const LabeledDocument& document() const { return view_->document(); }
  std::shared_ptr<const EpochView> view() const { return view_; }

  /// Rows in the frozen view (== the document's attached node count, and
  /// one past the largest NodeId), available without materializing
  /// anything.
  std::size_t node_count() const { return view_->node_count(); }
  /// Resident label-store bytes behind this view (see EpochView).
  std::size_t label_store_bytes() const {
    return view_->label_store_bytes();
  }

  /// The label-only structural oracle of the frozen view — ancestry,
  /// order, and the batched entry points, decidable with no tree locks.
  const StructureOracle& oracle() const { return view_->oracle(); }

  /// Evaluates an XPath against the frozen view through the planner,
  /// uncached (ExecuteXPath). Concurrency-safe across sessions sharing the
  /// view (per-call QueryContext over the view's immutable label table).
  /// `num_workers` fans the batched join executor without mutating shared
  /// state.
  Result<std::vector<NodeId>> Query(std::string_view xpath,
                                    int num_workers = 1) const;

 private:
  friend class DurableDocumentStore;
  Snapshot(EpochPin pin, std::shared_ptr<const EpochView> view)
      : pin_(std::move(pin)), view_(std::move(view)) {}

  EpochPin pin_;
  std::shared_ptr<const EpochView> view_;
};

/// Materialized-view cache seam for OpenSnapshot. The store stays cache
/// -agnostic: when a cache is attached (service layer), snapshot opens
/// route through it so concurrent sessions pinning the same (epoch,
/// journal_bytes) point share one materialization; without one, every
/// open materializes privately. Implementations must be thread-safe and
/// must run `materialize` outside any lock that a concurrent lookup of a
/// different key would need.
class SnapshotViewCache {
 public:
  virtual ~SnapshotViewCache() = default;

  using Materializer =
      std::function<Result<std::shared_ptr<const EpochView>>()>;

  /// Returns the cached view for (epoch, journal_bytes), or runs
  /// `materialize` (once, even under concurrent misses of the same key)
  /// and caches the result. Failures are not cached.
  virtual Result<std::shared_ptr<const EpochView>> GetOrMaterialize(
      std::uint64_t epoch, std::uint64_t journal_bytes,
      const Materializer& materialize) = 0;
};

/// Crash-safe facade over a LabeledDocument: every mutation is journaled
/// to a write-ahead log before the caller gets its result back, restarts
/// recover the exact pre-crash state (snapshot + journal replay), and
/// checkpoints compact the journal into a fresh epoch.
///
/// On-disk layout inside the store directory (epochs make checkpoints
/// atomic — the MANIFEST names the current epoch and is itself replaced by
/// an atomic rename, so a crash at any instant leaves a consistent state):
///
///   MANIFEST              "PLMANIF1" + u64 epoch (little-endian)
///   snapshot-<epoch>.plc  catalog snapshot (store/catalog.h), OR
///   delta-<epoch>.pld     delta against a base epoch (durability/delta.h)
///   journal-<epoch>.wal   write-ahead journal (durability/wal.h)
///
/// An epoch stored as a delta chains to its base epoch, whose
/// snapshot/delta file is retained (journal dropped) until the chain is
/// compacted into a full snapshot again.
///
/// All file traffic goes through a Vfs (durability/vfs.h), so the fault
/// matrix can fail any single syscall the store issues. When journaling
/// itself fails — the store can no longer promise that an acknowledged
/// mutation will survive a restart — the store enters READ-ONLY QUARANTINE:
/// the in-memory document is rolled back to the last durable state, queries
/// keep serving it, and every mutation returns kUnavailable carrying the
/// root cause. Checkpoint failures before the MANIFEST swing are ordinary
/// typed errors (the old epoch stays authoritative and the store stays
/// live); stray files from such attempts are swept on the next Open.
///
/// Concurrent readers open snapshots (OpenSnapshot): the backing pin
/// captures (epoch, committed journal bytes) and the snapshot materializes
/// that exact view while the single writer keeps mutating and
/// checkpointing — the registry retires an epoch's files only once no pin
/// needs them.
///
/// The facade exposes the same mutation vocabulary as LabeledDocument and
/// the document's oracle/query surface read-only; anything that changes
/// the tree must go through the store so it lands in the journal.
class DurableDocumentStore {
 public:
  struct Options {
    // Non-aggregate on purpose: a user-provided default constructor lets
    // `= {}` default arguments compile on GCC (bug 88165).
    Options() {}
    WalOptions wal;
    /// File system seam; nullptr means the process-wide PosixVfs. Tests
    /// pass a FaultInjectingVfs here. Must outlive the store and any pins.
    Vfs* vfs = nullptr;
    /// When true, Checkpoint writes a delta against the previous epoch
    /// whenever the change set is small enough, falling back to a full
    /// snapshot otherwise.
    bool delta_checkpoints = true;
    /// Compaction threshold: after this many consecutive delta epochs the
    /// next checkpoint writes a full snapshot, bounding recovery chains.
    int max_delta_chain = 4;
  };

  /// Initializes a new store at `dir` (created if missing) from parsed
  /// XML: writes the epoch-0 snapshot, an empty journal and the MANIFEST.
  /// Fails with kInvalidArgument when `dir` already holds a store, and
  /// with kResourceExhausted when the document has more nodes than the
  /// prime stream can label (LabeledDocument::CheckLabelRoom). An insert
  /// needs room in the stream for one prime plus the replacement
  /// self-labels it may draw, at most the SC group size per record at
  /// slack 0 (LabeledDocument::CheckInsertRoom), so a document stays
  /// writable up to about PrimeSource::kLength nodes. The primes a store
  /// draws over its life count against the same bound: at `live_write`'s
  /// 10 ops/s, 0.8 primes per op, a store is refused writes after about
  /// 294 days (DESIGN.md §19).
  static Result<DurableDocumentStore> Create(const std::string& dir,
                                             std::string_view xml,
                                             const Options& options = {});

  /// Opens an existing store: resolves the MANIFEST's epoch through its
  /// snapshot/delta chain, replays the journal's intact prefix on top
  /// (tolerating torn tails and corrupt frames), truncates the journal to
  /// that prefix, resumes appending, and sweeps stray files left by
  /// crashed checkpoints.
  static Result<DurableDocumentStore> Open(const std::string& dir,
                                           const Options& options = {});

  /// True when `dir` contains a store MANIFEST.
  static bool Exists(Vfs& vfs, const std::string& dir);
  static bool Exists(const std::string& dir) {
    return Exists(DefaultVfs(), dir);
  }

  DurableDocumentStore(DurableDocumentStore&&) = default;
  DurableDocumentStore& operator=(DurableDocumentStore&&) = default;

  /// The recovered/live document. Read-only: mutate through the store.
  const LabeledDocument& document() const { return doc_; }
  /// Replay statistics of the Open that produced this store (zeroes for
  /// Create).
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  std::uint64_t epoch() const { return epoch_; }
  const std::string& dir() const { return dir_; }
  /// Consecutive delta epochs behind the current epoch (0 right after a
  /// full-snapshot checkpoint).
  int delta_chain_length() const { return chain_len_; }

  /// True once a journaling failure forced read-only quarantine.
  bool quarantined() const { return !quarantine_.ok(); }
  /// kUnavailable with the root cause while quarantined, Ok otherwise.
  const Status& quarantine_reason() const { return quarantine_; }

  Result<std::vector<NodeId>> Query(std::string_view xpath) const {
    return doc_.Query(xpath);
  }

  // --- Journaled mutations (same vocabulary as LabeledDocument) ----------
  // Each returns after the op is applied in memory AND its frames are
  // handed to the WAL; group-commit/sync policy decides when the bytes
  // are crash-durable (call Flush for a hard boundary). Any journaling
  // failure rolls the in-memory document back to the last durable state
  // and quarantines the store; while quarantined every mutation returns
  // kUnavailable without touching anything. An insert that might draw
  // past the prime stream's bound (LabeledDocument::CheckInsertRoom) is
  // refused with kResourceExhausted before anything changes.

  Result<NodeId> InsertBefore(NodeId sibling, std::string_view tag);
  Result<NodeId> InsertAfter(NodeId sibling, std::string_view tag);
  Result<NodeId> AppendChild(NodeId parent, std::string_view tag);
  Result<NodeId> Wrap(NodeId node, std::string_view tag);
  Status Delete(NodeId node);

  /// Commits any group-commit buffer and applies the sync policy.
  Status Flush();

  /// Compacts: writes the current state under the next epoch — as a delta
  /// against this epoch when enabled and the change set is small, else as
  /// a full catalog snapshot — starts an empty journal, atomically
  /// swings the MANIFEST, and retires whatever no pin still needs. After
  /// a checkpoint, recovery replays nothing.
  Status Checkpoint();

  // --- Concurrent pinned readers ------------------------------------------

  /// Pins the current epoch at its current committed journal length.
  /// Cheap; safe to call from any thread. While the pin lives, every file
  /// needed to reconstruct this exact view is retained.
  EpochPin PinEpoch() const { return registry_->Pin(registry_); }

  /// Pins the current epoch and materializes a frozen, shareable view of
  /// it — the read entry point. Safe from any thread while the single
  /// writer keeps mutating and checkpointing. When a view cache is
  /// attached (set_view_cache), concurrent opens of the same (epoch,
  /// journal bytes) point share one materialization; otherwise each open
  /// rebuilds from disk (snapshot/delta chain + committed journal
  /// prefix). Every read on the returned Snapshot is concurrency-safe.
  Result<Snapshot> OpenSnapshot() const;

  /// Attaches (or clears, with nullptr) the materialized-view cache that
  /// OpenSnapshot routes through. Not synchronized: attach before reader
  /// threads start, detach after they stop. The cache must outlive every
  /// OpenSnapshot call made while attached.
  void set_view_cache(SnapshotViewCache* cache) { view_cache_ = cache; }

  /// The epoch registry backing PinEpoch — the service layer hooks its
  /// view cache into retirement notifications here, and tests observe
  /// pin counts / file reachability.
  const std::shared_ptr<EpochRegistry>& epoch_registry() const {
    return registry_;
  }

  /// Committed journal length of the current epoch (what a pin taken now
  /// would capture).
  std::uint64_t durable_journal_bytes() const {
    return wal_.committed_bytes();
  }

  // --- Paths (for tests and tooling) -------------------------------------
  static std::string ManifestPath(const std::string& dir);
  static std::string SnapshotPath(const std::string& dir,
                                  std::uint64_t epoch) {
    return EpochSnapshotPath(dir, epoch);
  }
  static std::string DeltaPath(const std::string& dir, std::uint64_t epoch) {
    return EpochDeltaPath(dir, epoch);
  }
  static std::string JournalPath(const std::string& dir,
                                 std::uint64_t epoch) {
    return EpochJournalPath(dir, epoch);
  }

 private:
  DurableDocumentStore(std::string dir, LabeledDocument doc,
                       WriteAheadLog wal, std::uint64_t epoch,
                       Options options, Vfs* vfs);

  /// Resolved state of one epoch's snapshot/delta chain, before journal
  /// replay, plus the chain links for registry bookkeeping.
  struct EpochChain {
    CatalogState state;
    struct Link {
      std::uint64_t epoch = 0;
      bool is_delta = false;
      std::uint64_t base_epoch = 0;
    };
    /// Current epoch first, full-snapshot base last.
    std::vector<Link> links;
  };
  static Result<EpochChain> LoadEpochChain(Vfs& vfs, const std::string& dir,
                                           std::uint64_t epoch);

  /// The one replay path, shared by Open, quarantine rollback and pinned
  /// views: the document `epoch` holds after the first `journal_limit`
  /// bytes of its journal. Loads the snapshot/delta chain, adopts it, then
  /// replays that journal prefix (a missing journal counts as empty).
  /// `origin` names the point in errors. `on_chain`, when set, sees the
  /// chain as loaded, before its rows move into the document; `stats`
  /// receives the journal's intact length and the replay's counts.
  static Result<LabeledDocument> ReplayEpoch(
      Vfs& vfs, const std::string& dir, std::uint64_t epoch,
      std::uint64_t journal_limit, const std::string& origin,
      RecoveryStats* stats = nullptr,
      const std::function<void(const EpochChain&)>& on_chain = nullptr);

  /// The body of the four public inserts: applies `op` at `node`, then
  /// journals it, quarantining the store when the journal fails.
  Result<NodeId> Insert(WalRecord::Op op, NodeId node, std::string_view tag);

  /// Journals one insert (kInsert + kScRewrite verification frame).
  Status JournalInsert(WalRecord::Op op, std::uint64_t anchor_self,
                       std::uint64_t cursor_before, NodeId fresh,
                       std::string_view tag);

  /// Builds the shared view for a pinned point: the epoch's mapped
  /// snapshot when the epoch is sealed (a full snapshot on disk, zero
  /// journal frames), else an owned image of the document ReplayEpoch
  /// rebuilds up to the pin's committed journal prefix. Corrupt images
  /// fail the open either way.
  Result<std::shared_ptr<const EpochView>> MaterializeView(
      const EpochPin& pin) const;

  /// Rebuilds the base diff index from the rows/SC state the current
  /// epoch's files hold (pre-replay at Open, post-checkpoint state at
  /// Checkpoint).
  void ResetBaseIndex(const std::vector<CatalogRow>& rows,
                      const ScTable& sc_table);

  /// Enters read-only quarantine: discards un-committed journal frames,
  /// rolls the in-memory document back to the last durable state (chain +
  /// committed journal prefix), and records `cause` in quarantine_.
  void EnterQuarantine(const Status& cause);

  /// Unlinks epoch files in `dir` that no epoch of the live chain owns
  /// (debris of checkpoints that failed before their MANIFEST swing).
  static void SweepStrays(Vfs& vfs, const std::string& dir,
                          const std::vector<EpochChain::Link>& links);

  std::string dir_;
  LabeledDocument doc_;
  WriteAheadLog wal_;
  std::uint64_t epoch_ = 0;
  Options options_;
  Vfs* vfs_ = nullptr;
  RecoveryStats recovery_stats_;
  std::shared_ptr<EpochRegistry> registry_;
  /// Optional materialized-view cache OpenSnapshot routes through.
  SnapshotViewCache* view_cache_ = nullptr;
  /// Ok while healthy; kUnavailable (with cause) once quarantined.
  Status quarantine_;
  /// Diff base for delta checkpoints: the current epoch's on-disk state.
  BaseRowIndex base_index_;
  std::vector<std::uint64_t> base_sc_hashes_;
  int chain_len_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_CORPUS_DURABLE_DOCUMENT_STORE_H_
