#include "store/integrity_scrubber.h"

#include <utility>

#include "store/semantic_trajectory_store.h"
#include "store/wal.h"

namespace semitri::store {

namespace {

constexpr char kQuarantineSuffix[] = ".quarantined";

}  // namespace

IntegrityScrubber::IntegrityScrubber(ScrubberConfig config)
    : config_(std::move(config)), env_(common::ResolveEnv(config_.env)) {}

common::Status IntegrityScrubber::BuildWorklist() {
  worklist_.clear();
  cursor_ = 0;

  // Sealed WAL segments, oldest first.
  for (const std::string& name :
       SemanticTrajectoryStore::ListSealedWalSegments(config_.dir, env_)) {
    WorkItem item;
    item.path = config_.dir + "/" + name;
    if (!config_.repair_dir.empty()) {
      item.repair_path = config_.repair_dir + "/" + name;
    }
    worklist_.push_back(std::move(item));
  }

  // The snapshot CURRENT names. Snapshots are never shipped, so there
  // is no standby copy to repair from; a corrupt one quarantines. An
  // unreadable CURRENT names nothing to scrub (Recover() reports it).
  auto snapshot = SemanticTrajectoryStore::CurrentSnapshot(config_.dir, env_);
  if (snapshot.ok()) {
    WorkItem item;
    item.path = config_.dir + "/" + snapshot->name;
    item.size = snapshot->bytes;
    worklist_.push_back(std::move(item));
  }
  return common::Status::OK();
}

bool IntegrityScrubber::Verify(const WorkItem& item,
                               const std::string& path) const {
  if (item.size.has_value()) {
    auto size = env_->FileSize(path);
    if (!size.ok() || *size != *item.size) return false;
  }
  auto scanned = ReplayWal(
      path,
      [](WalRecordType, std::string_view) { return common::Status::OK(); },
      /*truncate_torn_tail=*/false, env_);
  return scanned.ok() && scanned->torn_bytes_truncated == 0;
}

bool IntegrityScrubber::Repair(const WorkItem& item) {
  if (item.repair_path.empty()) return false;
  if (!env_->FileExists(item.repair_path)) return false;
  // Only an intact standby copy repairs — copying a second corruption
  // over the first would launder bad data into a "freshly repaired"
  // file.
  if (!Verify(item, item.repair_path)) return false;
  std::string data;
  if (!env_->ReadFileToString(item.repair_path, &data).ok()) return false;
  std::string tmp = item.path + ".scrub-tmp";
  if (!env_->WriteStringToFile(tmp, data, /*sync=*/true).ok()) {
    (void)env_->RemoveFile(tmp);
    return false;
  }
  if (!env_->RenameFile(tmp, item.path).ok()) {
    (void)env_->RemoveFile(tmp);
    return false;
  }
  (void)env_->SyncDir(config_.dir);
  return Verify(item, item.path);
}

void IntegrityScrubber::Quarantine(const WorkItem& item) {
  // Renaming the corrupt file out of recovery's sight trades silent
  // corruption for a loud, counted gap. A failed rename leaves the
  // corrupt file for the next cycle to re-detect — still counted.
  (void)env_->RenameFile(item.path, item.path + kQuarantineSuffix);
  ++counters_.quarantined;
  last_quarantine_ = item.path;
}

void IntegrityScrubber::ScrubOne(const WorkItem& item) {
  // Checkpoint compaction legitimately deletes files the worklist
  // still names (sealed segments GC'd, generations replaced); a
  // vanished file is not corruption.
  if (!env_->FileExists(item.path)) return;
  ++counters_.files_scanned;
  if (Verify(item, item.path)) return;
  ++counters_.corrupt_detected;
  if (Repair(item)) {
    ++counters_.repaired;
    return;
  }
  Quarantine(item);
}

common::Status IntegrityScrubber::Tick() {
  if (cursor_ >= worklist_.size()) {
    SEMITRI_RETURN_IF_ERROR(BuildWorklist());
    if (worklist_.empty()) {
      ++counters_.cycles_completed;
      return common::Status::OK();
    }
  }
  size_t end = cursor_ + config_.files_per_cycle;
  if (end > worklist_.size() || config_.files_per_cycle == 0) {
    end = worklist_.size();
  }
  for (; cursor_ < end; ++cursor_) {
    ScrubOne(worklist_[cursor_]);
  }
  if (cursor_ >= worklist_.size()) ++counters_.cycles_completed;
  return common::Status::OK();
}

}  // namespace semitri::store
