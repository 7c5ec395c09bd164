#include "durability/epoch.h"

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

void EpochRegistry::Register(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  epochs_.insert(epoch);
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

bool EpochRegistry::FilesPresent(std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.count(epoch) != 0 &&
         vfs_->Exists(EpochSnapshotPath(dir_, epoch)) &&
         vfs_->Exists(EpochJournalPath(dir_, epoch));
}

void EpochRegistry::CollectLocked() {
  std::set<std::uint64_t> live;
  live.insert(current_);
  for (const auto& [id, epoch] : pins_) live.insert(epoch);

  for (auto it = epochs_.begin(); it != epochs_.end();) {
    const std::uint64_t epoch = *it;
    // A checkpoint registers its epoch before SetCurrent publishes it; an
    // Unpin in between must not retire the files being published.
    if (epoch > current_) break;
    if (live.count(epoch) != 0) {
      ++it;
      continue;
    }
    // Neither current nor pinned: both files go. Best effort — strays are
    // swept at the next Open.
    vfs_->Unlink(EpochJournalPath(dir_, epoch));
    vfs_->Unlink(EpochSnapshotPath(dir_, epoch));
    it = epochs_.erase(it);
  }
}

}  // namespace primelabel
