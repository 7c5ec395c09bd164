#include "durability/epoch.h"

#include <set>
#include <utility>

namespace primelabel {

std::string EpochSnapshotPath(const std::string& dir, std::uint64_t epoch) {
  return dir + "/snapshot-" + std::to_string(epoch) + ".plc";
}

std::string EpochDeltaPath(const std::string& dir, std::uint64_t epoch) {
  return dir + "/delta-" + std::to_string(epoch) + ".pld";
}

std::string EpochJournalPath(const std::string& dir, std::uint64_t epoch) {
  return dir + "/journal-" + std::to_string(epoch) + ".wal";
}

EpochPin& EpochPin::operator=(EpochPin&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = std::move(other.registry_);
    id_ = other.id_;
    epoch_ = other.epoch_;
    journal_bytes_ = other.journal_bytes_;
    other.registry_.reset();
    other.id_ = 0;
  }
  return *this;
}

void EpochPin::Release() {
  if (registry_ != nullptr) {
    registry_->Unpin(id_);
    registry_.reset();
    id_ = 0;
  }
}

EpochRegistry::EpochRegistry(Vfs* vfs, std::string dir)
    : vfs_(vfs), dir_(std::move(dir)) {}

void EpochRegistry::Register(std::uint64_t epoch, bool is_delta,
                             std::uint64_t base_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  EpochInfo info;
  info.is_delta = is_delta;
  info.base_epoch = base_epoch;
  epochs_[epoch] = info;
}

void EpochRegistry::SetCurrent(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = epoch;
    durable_bytes_ = 0;
    CollectLocked();
  }
  // Notify outside mu_: the listener may release pins, which re-enters
  // the registry through Unpin.
  std::function<void(std::uint64_t)> listener;
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    listener = retirement_listener_;
  }
  if (listener) listener(epoch);
}

void EpochRegistry::SetRetirementListener(
    std::function<void(std::uint64_t)> listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  retirement_listener_ = std::move(listener);
}

void EpochRegistry::SetDurableBytes(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  durable_bytes_ = bytes;
}

std::uint64_t EpochRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::uint64_t EpochRegistry::durable_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_bytes_;
}

std::uint64_t EpochRegistry::pin_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_.size();
}

EpochPin EpochRegistry::Pin(std::shared_ptr<EpochRegistry> self) {
  EpochPin pin;
  std::lock_guard<std::mutex> lock(mu_);
  pin.registry_ = std::move(self);
  pin.id_ = next_pin_id_++;
  pin.epoch_ = current_;
  pin.journal_bytes_ = durable_bytes_;
  pins_[pin.id_] = current_;
  return pin;
}

void EpochRegistry::Unpin(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  pins_.erase(id);
  CollectLocked();
}

bool EpochRegistry::ChainFilesPresent(std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t at = epoch;
  for (int depth = 0; depth < 64; ++depth) {
    auto it = epochs_.find(at);
    if (it == epochs_.end()) return false;
    if (it->second.is_delta) {
      if (!vfs_->Exists(EpochDeltaPath(dir_, at))) return false;
      at = it->second.base_epoch;
      continue;
    }
    return vfs_->Exists(EpochSnapshotPath(dir_, at));
  }
  return false;
}

void EpochRegistry::CollectLocked() {
  // Journals are needed by the current epoch and every pinned epoch;
  // snapshot/delta files additionally by every base a retained delta
  // chains through.
  std::set<std::uint64_t> need_journal;
  need_journal.insert(current_);
  for (const auto& [id, epoch] : pins_) need_journal.insert(epoch);

  std::set<std::uint64_t> need_files;
  for (std::uint64_t root : need_journal) {
    std::uint64_t at = root;
    for (int depth = 0; depth < 64; ++depth) {
      if (!need_files.insert(at).second) break;
      auto it = epochs_.find(at);
      if (it == epochs_.end() || !it->second.is_delta) break;
      at = it->second.base_epoch;
    }
  }

  for (auto it = epochs_.begin(); it != epochs_.end();) {
    const std::uint64_t epoch = it->first;
    // A checkpoint registers its epoch before SetCurrent publishes it; an
    // Unpin in between must not retire the files being published.
    if (epoch > current_) break;
    if (need_files.count(epoch) == 0) {
      // Fully unreachable: all three files go. Best effort — strays are
      // swept at the next Open.
      vfs_->Unlink(EpochJournalPath(dir_, epoch));
      if (it->second.is_delta) {
        vfs_->Unlink(EpochDeltaPath(dir_, epoch));
      } else {
        vfs_->Unlink(EpochSnapshotPath(dir_, epoch));
      }
      it = epochs_.erase(it);
      continue;
    }
    if (need_journal.count(epoch) == 0 && !it->second.journal_removed) {
      // Kept only as a delta base: its journal contents were folded into
      // the delta, so the journal alone retires.
      vfs_->Unlink(EpochJournalPath(dir_, epoch));
      it->second.journal_removed = true;
    }
    ++it;
  }
}

}  // namespace primelabel
