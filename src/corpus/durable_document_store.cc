#include "corpus/durable_document_store.h"

#include <cstring>
#include <set>
#include <utility>

#include "store/catalog.h"
#include "util/binio.h"

namespace primelabel {

namespace {

constexpr char kManifestMagic[8] = {'P', 'L', 'M', 'A', 'N', 'I', 'F', '1'};

/// A delta is only worth it while (patches + tombstones) / final rows
/// stays at or below this fraction; above it, write a full snapshot.
constexpr double kDeltaMaxChangedFraction = 0.5;

Result<std::uint64_t> ReadManifest(Vfs& vfs, const std::string& path) {
  Result<std::vector<std::uint8_t>> bytes = vfs.ReadAll(path, 16);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no store MANIFEST at '" + path + "'");
    }
    return bytes.status();
  }
  if (bytes->size() < 16 ||
      std::memcmp(bytes->data(), kManifestMagic, 8) != 0) {
    return Status::ParseError("'" + path + "' is not a store MANIFEST");
  }
  std::uint64_t epoch = 0;
  for (int i = 0; i < 8; ++i) {
    epoch |= static_cast<std::uint64_t>((*bytes)[8 + i]) << (8 * i);
  }
  return epoch;
}

Status WriteManifestAtomic(Vfs& vfs, const std::string& dir,
                           std::uint64_t epoch) {
  const std::string final_path = DurableDocumentStore::ManifestPath(dir);
  const std::string tmp_path = final_path + ".tmp";
  ByteWriter writer;
  writer.Bytes(kManifestMagic, 8);
  writer.U64(epoch);
  Status written = vfs.WriteWhole(tmp_path, writer.buffer());
  if (!written.ok()) return written;
  // The swing: readers see either the old MANIFEST or the new one, never
  // a partial file.
  return vfs.Rename(tmp_path, final_path);
}

}  // namespace

std::string DurableDocumentStore::ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST";
}

bool DurableDocumentStore::Exists(Vfs& vfs, const std::string& dir) {
  return vfs.Exists(ManifestPath(dir));
}

DurableDocumentStore::DurableDocumentStore(std::string dir,
                                           LabeledDocument doc,
                                           WriteAheadLog wal,
                                           std::uint64_t epoch,
                                           Options options, Vfs* vfs)
    : dir_(std::move(dir)),
      doc_(std::move(doc)),
      wal_(std::move(wal)),
      epoch_(epoch),
      options_(options),
      vfs_(vfs),
      registry_(std::make_shared<EpochRegistry>(vfs, dir_)) {}

void DurableDocumentStore::ResetBaseIndex(const std::vector<CatalogRow>& rows,
                                          const ScTable& sc_table) {
  base_index_ = BuildBaseRowIndex(rows);
  base_sc_hashes_ = ScRecordHashes(sc_table);
}

Result<DurableDocumentStore::EpochChain> DurableDocumentStore::LoadEpochChain(
    Vfs& vfs, const std::string& dir, std::uint64_t epoch) {
  // Walk the delta chain down to its full-snapshot base, then apply the
  // deltas back up. Depth-capped: a cycle in base links (corrupt files)
  // must not hang recovery.
  EpochChain chain;
  std::vector<DeltaSnapshot> deltas;
  std::uint64_t at = epoch;
  for (int depth = 0; depth <= 64; ++depth) {
    const std::string snapshot_path = EpochSnapshotPath(dir, at);
    if (vfs.Exists(snapshot_path)) {
      Result<CatalogState> base = LoadCatalog(vfs, snapshot_path);
      if (!base.ok()) return base.status();
      chain.links.push_back({at, false, 0});
      chain.state = std::move(base.value());
      for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
        Status applied = ApplyDelta(*it, &chain.state);
        if (!applied.ok()) return applied;
      }
      return chain;
    }
    const std::string delta_path = EpochDeltaPath(dir, at);
    if (!vfs.Exists(delta_path)) {
      return Status::NotFound("epoch " + std::to_string(at) +
                              " of store '" + dir +
                              "' has neither a snapshot nor a delta file");
    }
    Result<std::vector<std::uint8_t>> bytes = vfs.ReadAll(delta_path);
    if (!bytes.ok()) return bytes.status();
    Result<DeltaSnapshot> delta =
        DecodeDelta(*bytes, "delta '" + delta_path + "'");
    if (!delta.ok()) return delta.status();
    chain.links.push_back({at, true, delta->base_epoch});
    at = delta->base_epoch;
    deltas.push_back(std::move(delta.value()));
  }
  return Status::ParseError("delta chain of store '" + dir +
                            "' exceeds depth 64 (cyclic base links?)");
}

Result<LabeledDocument> DurableDocumentStore::ReplayEpoch(
    Vfs& vfs, const std::string& dir, std::uint64_t epoch,
    std::uint64_t journal_limit, const std::string& origin,
    RecoveryStats* stats,
    const std::function<void(const EpochChain&)>& on_chain) {
  Result<EpochChain> chain = LoadEpochChain(vfs, dir, epoch);
  if (!chain.ok()) return chain.status();
  if (on_chain) on_chain(chain.value());
  Result<LabeledDocument> doc = LabeledDocument::FromCatalogRows(
      std::move(chain->state.rows), std::move(chain->state.sc_table),
      chain->state.fingerprints_valid, origin);
  if (!doc.ok()) return doc.status();
  Result<WalReadResult> journal =
      ReadWal(vfs, EpochJournalPath(dir, epoch), journal_limit);
  if (!journal.ok()) {
    if (journal.status().code() == StatusCode::kNotFound) return doc;
    return journal.status();
  }
  if (stats != nullptr) {
    stats->journal_valid_bytes = journal->valid_bytes;
    stats->tail_truncated = journal->tail_truncated;
    stats->bytes_dropped = journal->bytes_dropped;
  }
  Status replayed = ReplayRecords(journal->records, &doc.value(), stats);
  if (!replayed.ok()) return replayed;
  return doc;
}

void DurableDocumentStore::SweepStrays(
    Vfs& vfs, const std::string& dir,
    const std::vector<EpochChain::Link>& links) {
  std::set<std::string> keep;
  for (const EpochChain::Link& link : links) {
    keep.insert(link.is_delta ? EpochDeltaPath(dir, link.epoch)
                              : EpochSnapshotPath(dir, link.epoch));
    keep.insert(EpochJournalPath(dir, link.epoch));
  }
  Result<std::vector<std::string>> names = vfs.List(dir);
  if (!names.ok()) return;  // best effort
  for (const std::string& name : names.value()) {
    const bool epoch_file = name.rfind("snapshot-", 0) == 0 ||
                            name.rfind("delta-", 0) == 0 ||
                            name.rfind("journal-", 0) == 0;
    const bool manifest_tmp = name == "MANIFEST.tmp";
    if (!epoch_file && !manifest_tmp) continue;
    const std::string path = dir + "/" + name;
    if (keep.count(path) != 0) continue;
    vfs.Unlink(path);
  }
}

Result<DurableDocumentStore> DurableDocumentStore::Create(
    const std::string& dir, std::string_view xml, const Options& options) {
  Vfs& vfs = options.vfs != nullptr ? *options.vfs : DefaultVfs();
  if (Exists(vfs, dir)) {
    return Status::InvalidArgument("'" + dir +
                                   "' already contains a durable store");
  }
  Status made = vfs.CreateDirs(dir);
  if (!made.ok()) {
    return Status::InvalidArgument("cannot create store directory '" + dir +
                                   "': " + made.message());
  }
  Result<LabeledDocument> doc = LabeledDocument::FromXml(xml);
  if (!doc.ok()) return doc.status();

  const std::uint64_t epoch = 0;
  std::vector<CatalogRow> rows = doc->ToCatalogRows();
  Status saved = WriteCatalog(vfs, SnapshotPath(dir, epoch), rows,
                              doc->scheme().sc_table());
  if (!saved.ok()) return saved;
  Result<WriteAheadLog> wal =
      WriteAheadLog::Open(vfs, JournalPath(dir, epoch), options.wal);
  if (!wal.ok()) return wal.status();
  Status manifest = WriteManifestAtomic(vfs, dir, epoch);
  if (!manifest.ok()) return manifest;

  DurableDocumentStore store(dir, std::move(doc.value()),
                             std::move(wal.value()), epoch, options, &vfs);
  store.ResetBaseIndex(rows, store.doc_.scheme().sc_table());
  store.registry_->Register(epoch, /*is_delta=*/false, 0);
  store.registry_->SetCurrent(epoch);
  store.registry_->SetDurableBytes(store.wal_.committed_bytes());
  return store;
}

Result<DurableDocumentStore> DurableDocumentStore::Open(
    const std::string& dir, const Options& options) {
  Vfs& vfs = options.vfs != nullptr ? *options.vfs : DefaultVfs();
  Result<std::uint64_t> epoch = ReadManifest(vfs, ManifestPath(dir));
  if (!epoch.ok()) return epoch.status();

  // The diff base for delta checkpoints is the epoch's on-disk state,
  // BEFORE journal replay: the next delta must carry everything the
  // journal held.
  BaseRowIndex base_index;
  std::vector<std::uint64_t> base_sc_hashes;
  std::vector<EpochChain::Link> links;
  RecoveryStats stats;
  Result<LabeledDocument> doc = ReplayEpoch(
      vfs, dir, *epoch, ~std::uint64_t{0},
      "store '" + dir + "' epoch " + std::to_string(*epoch), &stats,
      [&](const EpochChain& chain) {
        base_index = BuildBaseRowIndex(chain.state.rows);
        base_sc_hashes = ScRecordHashes(chain.state.sc_table);
        links = chain.links;
      });
  if (!doc.ok()) return doc.status();

  // Resume the journal after its intact prefix; Open truncates the torn
  // tail so new frames extend a clean file.
  Result<WriteAheadLog> wal = WriteAheadLog::Open(
      vfs, JournalPath(dir, *epoch), options.wal, stats.journal_valid_bytes);
  if (!wal.ok()) return wal.status();

  DurableDocumentStore store(dir, std::move(doc.value()),
                             std::move(wal.value()), *epoch, options, &vfs);
  store.recovery_stats_ = stats;
  store.base_index_ = std::move(base_index);
  store.base_sc_hashes_ = std::move(base_sc_hashes);
  store.chain_len_ = static_cast<int>(links.size()) - 1;
  // Register the chain bottom-up so every base is known before the epoch
  // that chains to it, then publish.
  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    store.registry_->Register(it->epoch, it->is_delta, it->base_epoch);
  }
  store.registry_->SetCurrent(*epoch);
  store.registry_->SetDurableBytes(store.wal_.committed_bytes());
  SweepStrays(vfs, dir, links);
  return store;
}

Status DurableDocumentStore::JournalInsert(WalRecord::Op op,
                                           std::uint64_t anchor_self,
                                           std::uint64_t cursor_before,
                                           NodeId fresh,
                                           std::string_view tag) {
  WalRecord insert;
  insert.type = WalRecord::Type::kInsert;
  insert.op = op;
  insert.anchor_self = anchor_self;
  insert.prime_cursor = cursor_before;
  insert.new_self = doc_.scheme().structure().self_label(fresh);
  insert.tag = std::string(tag);
  insert.order = InsertOrder::kDocumentOrder;
  Status appended = wal_.Append(insert);
  if (!appended.ok()) return appended;

  // Verification frame: what the SC insert did, so replay can prove it
  // rewrote the same records (and handed out the same replacement
  // self-labels, via the max-order/new-self checks).
  WalRecord rewrite;
  rewrite.type = WalRecord::Type::kScRewrite;
  rewrite.anchor_self = insert.new_self;
  rewrite.sc_records_updated =
      static_cast<std::uint32_t>(doc_.last_sc_stats().records_updated);
  rewrite.sc_nodes_relabeled =
      static_cast<std::uint32_t>(doc_.last_sc_stats().nodes_relabeled);
  rewrite.sc_max_order = doc_.scheme().sc_table().max_order();
  return wal_.Append(rewrite);
}

void DurableDocumentStore::EnterQuarantine(const Status& cause) {
  std::string reason = "store quarantined: " + cause.message();
  // The ops behind any buffered frames are about to be rolled back — the
  // frames must never land (the destructor would otherwise best-effort
  // commit them, resurrecting ops whose callers saw an error).
  wal_.DiscardPending();
  const std::uint64_t durable = wal_.committed_bytes();

  // Roll the in-memory document back to the last durable state: the
  // epoch's snapshot/delta chain plus the committed journal prefix.
  Result<LabeledDocument> doc = ReplayEpoch(
      *vfs_, dir_, epoch_, durable,
      "quarantine rollback of '" + dir_ + "' epoch " + std::to_string(epoch_));
  if (doc.ok()) {
    doc_ = std::move(doc.value());
  } else {
    // Reads failed too (e.g. a simulated crash): queries keep serving the
    // pre-failure document, which may be ahead of what a restart will
    // recover.
    reason += "; in-memory state may be ahead of durable state";
  }
  quarantine_ = Status::Unavailable(reason);
  registry_->SetDurableBytes(durable);
}

Result<NodeId> DurableDocumentStore::Insert(WalRecord::Op op, NodeId node,
                                            std::string_view tag) {
  if (quarantined()) return quarantine_;
  const std::uint64_t anchor = doc_.scheme().structure().self_label(node);
  const std::uint64_t cursor = doc_.prime_cursor();
  // Refused before anything changes, so the store stays live and its
  // journal replays as before.
  Status room = doc_.CheckInsertRoom(cursor);
  if (!room.ok()) return room;
  NodeId fresh = ApplyInsert(op, node, tag, &doc_);
  Status logged = JournalInsert(op, anchor, cursor, fresh, tag);
  if (!logged.ok()) {
    EnterQuarantine(logged);
    return quarantine_;
  }
  registry_->SetDurableBytes(wal_.committed_bytes());
  return fresh;
}

Result<NodeId> DurableDocumentStore::InsertBefore(NodeId sibling,
                                                  std::string_view tag) {
  return Insert(WalRecord::Op::kInsertBefore, sibling, tag);
}

Result<NodeId> DurableDocumentStore::InsertAfter(NodeId sibling,
                                                 std::string_view tag) {
  return Insert(WalRecord::Op::kInsertAfter, sibling, tag);
}

Result<NodeId> DurableDocumentStore::AppendChild(NodeId parent,
                                                 std::string_view tag) {
  return Insert(WalRecord::Op::kAppendChild, parent, tag);
}

Result<NodeId> DurableDocumentStore::Wrap(NodeId node, std::string_view tag) {
  return Insert(WalRecord::Op::kWrap, node, tag);
}

Status DurableDocumentStore::Delete(NodeId node) {
  if (quarantined()) return quarantine_;
  if (node == doc_.tree().root()) {
    return Status::InvalidArgument("cannot delete the document root");
  }
  WalRecord record;
  record.type = WalRecord::Type::kDelete;
  record.anchor_self = doc_.scheme().structure().self_label(node);
  doc_.Delete(node);
  Status logged = wal_.Append(record);
  if (!logged.ok()) {
    EnterQuarantine(logged);
    return quarantine_;
  }
  registry_->SetDurableBytes(wal_.committed_bytes());
  return Status::Ok();
}

Status DurableDocumentStore::Flush() {
  if (quarantined()) return quarantine_;
  Status synced = wal_.Sync();
  if (!synced.ok()) {
    EnterQuarantine(synced);
    return quarantine_;
  }
  registry_->SetDurableBytes(wal_.committed_bytes());
  return Status::Ok();
}

Status DurableDocumentStore::Checkpoint() {
  if (quarantined()) return quarantine_;
  // Order matters for crash atomicity: everything of the new epoch is
  // written to fresh names first, the MANIFEST rename publishes it, and
  // only then does the registry retire what no pin still needs. A crash
  // (or failure) before the rename leaves the old epoch authoritative —
  // the new files are stray garbage swept at the next Open — so those
  // failures are plain errors and the store stays live. Only the leading
  // journal sync can quarantine: its failure means committed-but-unsynced
  // frames may not survive, the same broken promise as a commit failure.
  Status flushed = wal_.Sync();
  if (!flushed.ok()) {
    EnterQuarantine(flushed);
    return quarantine_;
  }
  registry_->SetDurableBytes(wal_.committed_bytes());

  const std::uint64_t next = epoch_ + 1;
  std::vector<CatalogRow> rows = doc_.ToCatalogRows();
  const ScTable& sc_table = doc_.scheme().sc_table();

  bool as_delta =
      options_.delta_checkpoints && chain_len_ < options_.max_delta_chain;
  DeltaSnapshot delta;
  if (as_delta) {
    delta = BuildDelta(epoch_, base_index_, base_sc_hashes_, rows, sc_table);
    const double changed =
        rows.empty() ? 1.0
                     : static_cast<double>(delta.patches.size() +
                                           delta.tombstones.size()) /
                           static_cast<double>(rows.size());
    if (changed > kDeltaMaxChangedFraction) as_delta = false;
  }

  Status saved =
      as_delta ? vfs_->WriteWhole(DeltaPath(dir_, next), EncodeDelta(delta))
               : WriteCatalog(*vfs_, SnapshotPath(dir_, next), rows, sc_table);
  if (!saved.ok()) return saved;
  Result<WriteAheadLog> wal =
      WriteAheadLog::Open(*vfs_, JournalPath(dir_, next), options_.wal);
  if (!wal.ok()) return wal.status();
  Status manifest = WriteManifestAtomic(*vfs_, dir_, next);
  if (!manifest.ok()) return manifest;

  // Published. Retirement of the old epoch's files (or just its journal,
  // when it stays as a delta base) is the registry's call — pins may
  // still need them.
  const std::uint64_t old = epoch_;
  wal_ = std::move(wal.value());
  epoch_ = next;
  chain_len_ = as_delta ? chain_len_ + 1 : 0;
  ResetBaseIndex(rows, sc_table);
  // Every replay of the new epoch loads its table from the files just
  // written, whose largest order is the largest still held; the writer's
  // table must start the epoch from the same value, or the first insert
  // after deleting the document's tail fails the kScRewrite cross-check.
  doc_.RederiveScMaxOrder();
  registry_->Register(next, as_delta, old);
  registry_->SetCurrent(next);
  registry_->SetDurableBytes(wal_.committed_bytes());
  return Status::Ok();
}

Result<std::shared_ptr<const EpochView>> DurableDocumentStore::MaterializeView(
    const EpochPin& pin) const {
  // Sealed epoch: a full snapshot with zero journal frames is exactly the
  // catalog image — serve it mapped, no replay. Eligibility is structural
  // (journal empty, a full .plc file exists); OpenCatalogMapped converts
  // pre-v5 or stale-hash files to an in-memory image itself. A digest
  // failure is NOT converted: the file is the current epoch's
  // authoritative state, so corruption propagates.
  if (pin.journal_bytes() <= kWalHeaderBytes &&
      vfs_->Exists(EpochSnapshotPath(dir_, pin.epoch()))) {
    Result<LoadedCatalog> catalog =
        OpenCatalogMapped(*vfs_, EpochSnapshotPath(dir_, pin.epoch()));
    if (!catalog.ok()) return catalog.status();
    return std::shared_ptr<const EpochView>(
        std::make_shared<EpochView>(std::move(catalog.value())));
  }
  if (!pin.valid()) {
    return Status::InvalidArgument("cannot read a released epoch pin");
  }
  // Replay only the committed prefix the pin captured: frames the writer
  // appended after the pin are invisible to this view. The replayed
  // document then becomes an image of its rows, the shape a sealed epoch
  // is served in.
  const std::string origin = "pinned epoch " + std::to_string(pin.epoch()) +
                             " of store '" + dir_ + "'";
  Result<LabeledDocument> doc = ReplayEpoch(*vfs_, dir_, pin.epoch(),
                                            pin.journal_bytes(), origin);
  if (!doc.ok()) return doc.status();
  Result<LoadedCatalog> image = LoadedCatalog::FromRows(
      doc->ToCatalogRows(), doc->scheme().sc_table(), origin);
  if (!image.ok()) return image.status();
  return std::shared_ptr<const EpochView>(
      std::make_shared<EpochView>(std::move(image.value())));
}

Result<Snapshot> DurableDocumentStore::OpenSnapshot() const {
  EpochPin pin = PinEpoch();
  auto materialize = [this, &pin]() { return MaterializeView(pin); };
  Result<std::shared_ptr<const EpochView>> view =
      view_cache_ != nullptr
          ? view_cache_->GetOrMaterialize(pin.epoch(), pin.journal_bytes(),
                                          materialize)
          : materialize();
  if (!view.ok()) return view.status();
  return Snapshot(std::move(pin), std::move(view.value()));
}

Result<std::vector<NodeId>> Snapshot::Query(std::string_view xpath,
                                            int num_workers) const {
  if (!valid()) {
    return Status::InvalidArgument("cannot query an invalid snapshot");
  }
  return view_->Query(xpath, num_workers);
}

}  // namespace primelabel
