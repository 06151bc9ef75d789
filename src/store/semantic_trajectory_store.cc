#include "store/semantic_trajectory_store.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "common/fault_injection.h"
#include "common/serial.h"
#include "common/strings.h"
#include "core/state_serialization.h"

namespace semitri::store {

namespace {

constexpr char kCurrentFile[] = "CURRENT";
constexpr char kWalFile[] = "wal.log";
constexpr char kSealedWalPrefix[] = "wal-";
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kNumberedSuffix[] = ".log";

// "wal-000012.log" -> 12 for `prefix` "wal-". False for the active
// "wal.log" and anything else that is not `<prefix><digits>.log`. With
// `any_tail`, text after ".log" is accepted too: the names a numbered
// file leaves behind (".quarantined", ".scrub-tmp", a shipper's ".tmp")
// still hold its number, which the sequence counter must not reuse.
bool ParseSequence(std::string_view name, std::string_view prefix,
                   size_t* seq, bool any_tail = false) {
  if (name.substr(0, prefix.size()) != prefix) return false;
  size_t end = prefix.size();
  size_t value = 0;
  while (end < name.size() && name[end] >= '0' && name[end] <= '9') {
    value = value * 10 + static_cast<size_t>(name[end++] - '0');
  }
  const std::string_view suffix = kNumberedSuffix;
  std::string_view tail = name.substr(end);
  if (end == prefix.size() || tail.substr(0, suffix.size()) != suffix ||
      (!any_tail && tail.size() != suffix.size())) {
    return false;
  }
  *seq = value;
  return true;
}

// Full-put payloads, shared by the WAL records Put* log and the
// snapshot Checkpoint() writes.
std::string PutPayload(const core::RawTrajectory& trajectory) {
  common::StateWriter payload;
  core::SaveState(trajectory, &payload);
  return payload.Release();
}

std::string PutPayload(core::TrajectoryId id,
                       const std::vector<core::Episode>& episodes) {
  common::StateWriter payload;
  payload.PutI64(id);
  core::SaveState(episodes, &payload);
  return payload.Release();
}

std::string PutPayload(const core::StructuredSemanticTrajectory& trajectory) {
  common::StateWriter payload;
  core::SaveState(trajectory, &payload);
  return payload.Release();
}

// CSV export rows. Doubles are written with %.17g, so the text holds
// the identical bit pattern and a reader loses no precision.
std::string GpsRow(const core::RawTrajectory& t, const core::GpsPoint& p) {
  return common::StrFormat("%lld,%lld,%.17g,%.17g,%.17g",
                           static_cast<long long>(t.object_id),
                           static_cast<long long>(t.id), p.position.x,
                           p.position.y, p.time);
}

std::string EpisodeRow(core::TrajectoryId id, size_t index,
                       const core::Episode& e) {
  return common::StrFormat(
      "%lld,%zu,%s,%zu,%zu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
      static_cast<long long>(id), index, core::EpisodeKindName(e.kind),
      e.begin, e.end, e.time_in, e.time_out, e.center.x, e.center.y,
      e.bounds.min.x, e.bounds.min.y, e.bounds.max.x, e.bounds.max.y);
}

std::string AnnotationsEncoded(const core::SemanticEpisode& ep) {
  std::vector<std::string> parts;
  parts.reserve(ep.annotations.size());
  for (const core::Annotation& a : ep.annotations) {
    parts.push_back(a.key + "=" + a.value);
  }
  return common::Join(parts, ";");
}

std::string SemanticEpisodeRow(const core::StructuredSemanticTrajectory& t,
                               size_t index,
                               const core::SemanticEpisode& ep) {
  return common::StrFormat(
      "%lld,%lld,%s,%zu,%s,%s,%lld,%.17g,%.17g,%s,%llu",
      static_cast<long long>(t.object_id),
      static_cast<long long>(t.trajectory_id), t.interpretation.c_str(),
      index, core::EpisodeKindName(ep.kind),
      core::PlaceKindName(ep.place.kind),
      static_cast<long long>(ep.place.id), ep.time_in, ep.time_out,
      common::CsvEscape(AnnotationsEncoded(ep)).c_str(),
      static_cast<unsigned long long>(ep.source_episode));
}

constexpr char kGpsHeader[] = "object_id,trajectory_id,x,y,t";
constexpr char kEpisodeHeader[] =
    "trajectory_id,index,kind,begin,end,time_in,time_out,center_x,center_y,"
    "min_x,min_y,max_x,max_y";
constexpr char kSemanticHeader[] =
    "object_id,trajectory_id,interpretation,index,kind,place_kind,place_id,"
    "time_in,time_out,annotations,source_episode";

// Writes the header and rows as `path`'s whole content, fsynced.
common::Status WriteCsv(common::Env* env, const std::string& path,
                        const char* header,
                        const std::vector<std::string>& rows) {
  std::string buffer = header;
  buffer += '\n';
  for (const std::string& row : rows) {
    buffer += row;
    buffer += '\n';
  }
  return env->WriteStringToFile(path, buffer, /*sync=*/true);
}

}  // namespace

SemanticTrajectoryStore::SemanticTrajectoryStore(StoreConfig config)
    : config_(std::move(config)), env_(common::ResolveEnv(config_.env)) {}

common::Status SemanticTrajectoryStore::EnterDegradedLocked(
    common::Status cause) {
  if (!degraded_) {
    degraded_ = true;
    degraded_reason_ = cause.ToString();
  }
  return cause;
}

common::Status SemanticTrajectoryStore::CheckWritableLocked() const {
  if (!degraded_) return common::Status::OK();
  return common::Status::Unavailable(
      "store is in read-only degraded mode: " + degraded_reason_);
}

common::Status SemanticTrajectoryStore::EnsureWal() {
  if (config_.durable_dir.empty() || wal_ != nullptr) {
    return common::Status::OK();
  }
  SEMITRI_RETURN_IF_ERROR(env_->CreateDirs(config_.durable_dir));
  auto writer = WalWriter::Open(config_.durable_dir + "/" + kWalFile, env_);
  SEMITRI_RETURN_IF_ERROR(writer.status());
  wal_ = std::move(writer.value());
  return common::Status::OK();
}

common::Status SemanticTrajectoryStore::LogToWal(WalRecordType type,
                                                 const std::string& payload) {
  if (config_.durable_dir.empty()) return common::Status::OK();
  common::Status status = EnsureWal();
  if (status.ok()) status = wal_->Append(type, payload);
  if (status.ok() && config_.sync_every_put) status = wal_->Sync();
  // Any WAL write/sync failure poisons the writer (store/wal.h) and
  // flips the store into read-only degraded mode: accepting more
  // writes after a disk fault would be a durability lie.
  if (!status.ok()) return EnterDegradedLocked(std::move(status));
  return status;
}

void SemanticTrajectoryStore::ApplyRawTrajectory(
    const core::RawTrajectory& trajectory) {
  auto it = raw_.find(trajectory.id);
  if (it != raw_.end()) {
    gps_record_count_ -= it->second.points.size();
  }
  gps_record_count_ += trajectory.points.size();
  raw_[trajectory.id] = trajectory;
}

void SemanticTrajectoryStore::ApplyEpisodes(
    core::TrajectoryId id, const std::vector<core::Episode>& episodes) {
  auto it = episodes_.find(id);
  if (it != episodes_.end()) episode_count_ -= it->second.size();
  episode_count_ += episodes.size();
  episodes_[id] = episodes;
}

void SemanticTrajectoryStore::ApplyInterpretation(
    const core::StructuredSemanticTrajectory& trajectory) {
  auto key = std::make_pair(trajectory.trajectory_id,
                            trajectory.interpretation);
  auto it = interpretations_.find(key);
  if (it != interpretations_.end()) {
    semantic_episode_count_ -= it->second.episodes.size();
  }
  semantic_episode_count_ += trajectory.episodes.size();
  interpretations_[key] = trajectory;
}

void SemanticTrajectoryStore::ApplyRawPointsAppend(
    core::TrajectoryId id, core::ObjectId object_id, size_t start,
    std::span<const core::GpsPoint> tail) {
  core::RawTrajectory& t = raw_[id];
  gps_record_count_ -= t.points.size() - start;
  gps_record_count_ += tail.size();
  t.id = id;
  t.object_id = object_id;
  t.points.resize(start);
  t.points.insert(t.points.end(), tail.begin(), tail.end());
}

void SemanticTrajectoryStore::ApplyEpisodesAppend(
    core::TrajectoryId id, size_t start, std::span<const core::Episode> tail) {
  std::vector<core::Episode>& episodes = episodes_[id];
  episode_count_ -= episodes.size() - start;
  episode_count_ += tail.size();
  episodes.resize(start);
  episodes.insert(episodes.end(), tail.begin(), tail.end());
}

void SemanticTrajectoryStore::ApplyInterpretationAppend(
    const core::StructuredSemanticTrajectory& header, size_t start,
    std::span<const core::SemanticEpisode> tail) {
  core::StructuredSemanticTrajectory& t = interpretations_[std::make_pair(
      header.trajectory_id, header.interpretation)];
  semantic_episode_count_ -= t.episodes.size() - start;
  semantic_episode_count_ += tail.size();
  t.trajectory_id = header.trajectory_id;
  t.object_id = header.object_id;
  t.interpretation = header.interpretation;
  t.episodes.resize(start);
  t.episodes.insert(t.episodes.end(), tail.begin(), tail.end());
}

size_t SemanticTrajectoryStore::StoredPoints(core::TrajectoryId id) const {
  auto it = raw_.find(id);
  return it == raw_.end() ? 0 : it->second.points.size();
}

size_t SemanticTrajectoryStore::StoredEpisodes(core::TrajectoryId id) const {
  auto it = episodes_.find(id);
  return it == episodes_.end() ? 0 : it->second.size();
}

size_t SemanticTrajectoryStore::StoredSemanticEpisodes(
    core::TrajectoryId id, const std::string& interpretation) const {
  auto it = interpretations_.find(std::make_pair(id, interpretation));
  return it == interpretations_.end() ? 0 : it->second.episodes.size();
}

namespace {

// An append must start inside (or right after) the stored rows: a gap
// would leave rows no record ever wrote.
common::Status CheckAppendStart(common::StatusCode code, const char* table,
                                core::TrajectoryId id, size_t start,
                                size_t stored) {
  if (start <= stored) return common::Status::OK();
  return common::Status(
      code, common::StrFormat("%s append for trajectory %lld starts at row "
                              "%zu past the %zu stored rows",
                              table, static_cast<long long>(id), start,
                              stored));
}

// Names one table entry for ReplayGaps.
std::string EntryKey(const char* table, core::TrajectoryId id,
                     const std::string& interpretation = "") {
  return common::StrFormat("%s/%lld/%s", table, static_cast<long long>(id),
                           interpretation.c_str());
}

}  // namespace

common::Status SemanticTrajectoryStore::ApplyWalRecord(
    WalRecordType type, std::string_view payload, ReplayGaps* gaps) {
  common::StateReader reader(payload);
  constexpr common::StatusCode kCorrupt = common::StatusCode::kCorruption;
  // An append whose start lies past the stored rows is set aside in
  // `gaps` instead of applied. Replaying a log over a newer checkpoint
  // can meet appends logged before a full put shrank the entry; that
  // full put, later in the same log, rewrites the entry whole and
  // clears the gap. Recover() reports any gap left at the end.
  auto set_aside = [gaps](std::string key, common::Status gap) {
    gaps->emplace(std::move(key), std::move(gap));
  };
  auto repaired = [gaps](const char* table, core::TrajectoryId id,
                         const std::string& interpretation = "") {
    if (!gaps->empty()) gaps->erase(EntryKey(table, id, interpretation));
  };
  switch (type) {
    case WalRecordType::kPutRawTrajectory: {
      core::RawTrajectory trajectory;
      SEMITRI_RETURN_IF_ERROR(core::RestoreState(&reader, &trajectory));
      ApplyRawTrajectory(trajectory);
      repaired("gps", trajectory.id);
      break;
    }
    case WalRecordType::kPutEpisodes: {
      int64_t id = 0;
      std::vector<core::Episode> episodes;
      SEMITRI_RETURN_IF_ERROR(reader.GetI64(&id));
      SEMITRI_RETURN_IF_ERROR(core::RestoreState(&reader, &episodes));
      ApplyEpisodes(id, episodes);
      repaired("episode", id);
      break;
    }
    case WalRecordType::kPutInterpretation: {
      core::StructuredSemanticTrajectory trajectory;
      SEMITRI_RETURN_IF_ERROR(core::RestoreState(&reader, &trajectory));
      ApplyInterpretation(trajectory);
      repaired("semantic episode", trajectory.trajectory_id,
               trajectory.interpretation);
      break;
    }
    case WalRecordType::kAppendRawPoints: {
      uint64_t start = 0;
      core::RawTrajectory tail;
      SEMITRI_RETURN_IF_ERROR(reader.GetU64(&start));
      SEMITRI_RETURN_IF_ERROR(core::RestoreState(&reader, &tail));
      common::Status fits = CheckAppendStart(kCorrupt, "gps", tail.id, start,
                                             StoredPoints(tail.id));
      if (!fits.ok()) {
        set_aside(EntryKey("gps", tail.id), std::move(fits));
        break;
      }
      ApplyRawPointsAppend(tail.id, tail.object_id, start, tail.points);
      break;
    }
    case WalRecordType::kAppendEpisodes: {
      int64_t id = 0;
      uint64_t start = 0;
      std::vector<core::Episode> tail;
      SEMITRI_RETURN_IF_ERROR(reader.GetI64(&id));
      SEMITRI_RETURN_IF_ERROR(reader.GetU64(&start));
      SEMITRI_RETURN_IF_ERROR(core::RestoreState(&reader, &tail));
      common::Status fits = CheckAppendStart(kCorrupt, "episode", id, start,
                                             StoredEpisodes(id));
      if (!fits.ok()) {
        set_aside(EntryKey("episode", id), std::move(fits));
        break;
      }
      ApplyEpisodesAppend(id, start, tail);
      break;
    }
    case WalRecordType::kAppendInterpretation: {
      uint64_t start = 0;
      core::StructuredSemanticTrajectory tail;
      SEMITRI_RETURN_IF_ERROR(reader.GetU64(&start));
      SEMITRI_RETURN_IF_ERROR(core::RestoreState(&reader, &tail));
      common::Status fits = CheckAppendStart(
          kCorrupt, "semantic episode", tail.trajectory_id, start,
          StoredSemanticEpisodes(tail.trajectory_id, tail.interpretation));
      if (!fits.ok()) {
        set_aside(EntryKey("semantic episode", tail.trajectory_id,
                           tail.interpretation),
                  std::move(fits));
        break;
      }
      ApplyInterpretationAppend(tail, start, tail.episodes);
      break;
    }
    default:
      return common::Status::Corruption("unknown wal record type");
  }
  if (!reader.AtEnd()) {
    return common::Status::Corruption("trailing bytes in wal record");
  }
  return common::Status::OK();
}

common::Status SemanticTrajectoryStore::PutRawTrajectory(
    const core::RawTrajectory& trajectory) {
  std::lock_guard<std::mutex> lock(mutex_);
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());
  if (!config_.durable_dir.empty()) {
    SEMITRI_RETURN_IF_ERROR(
        LogToWal(WalRecordType::kPutRawTrajectory, PutPayload(trajectory)));
  }
  ApplyRawTrajectory(trajectory);
  return common::Status::OK();
}

common::Status SemanticTrajectoryStore::PutEpisodes(
    core::TrajectoryId id, const std::vector<core::Episode>& episodes) {
  std::lock_guard<std::mutex> lock(mutex_);
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());
  if (!config_.durable_dir.empty()) {
    SEMITRI_RETURN_IF_ERROR(
        LogToWal(WalRecordType::kPutEpisodes, PutPayload(id, episodes)));
  }
  ApplyEpisodes(id, episodes);
  return common::Status::OK();
}

common::Status SemanticTrajectoryStore::PutInterpretation(
    const core::StructuredSemanticTrajectory& trajectory) {
  if (trajectory.interpretation.empty()) {
    return common::Status::InvalidArgument(
        "interpretation name must be set");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());
  if (!config_.durable_dir.empty()) {
    SEMITRI_RETURN_IF_ERROR(
        LogToWal(WalRecordType::kPutInterpretation, PutPayload(trajectory)));
  }
  ApplyInterpretation(trajectory);
  return common::Status::OK();
}

// The append payloads are laid out as `u64 start` followed by the
// full-put encoding of an entry holding only the new rows (episodes:
// `i64 id, u64 start`, then the episode-list encoding), written here
// without materializing that tail entry; replay decodes them with the
// ordinary core::RestoreState.

common::Status SemanticTrajectoryStore::AppendRawPoints(
    const core::RawTrajectory& trajectory, size_t start) {
  if (start > trajectory.points.size()) {
    return common::Status::InvalidArgument("append start past the argument");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());
  SEMITRI_RETURN_IF_ERROR(CheckAppendStart(
      common::StatusCode::kFailedPrecondition, "gps", trajectory.id, start,
      StoredPoints(trajectory.id)));
  std::span<const core::GpsPoint> tail =
      std::span<const core::GpsPoint>(trajectory.points).subspan(start);
  if (!config_.durable_dir.empty()) {
    common::StateWriter payload;
    payload.PutU64(start);
    payload.PutI64(trajectory.id);
    payload.PutI64(trajectory.object_id);
    payload.PutU64(tail.size());
    for (const core::GpsPoint& p : tail) core::SaveState(p, &payload);
    SEMITRI_RETURN_IF_ERROR(
        LogToWal(WalRecordType::kAppendRawPoints, payload.data()));
  }
  ApplyRawPointsAppend(trajectory.id, trajectory.object_id, start, tail);
  return common::Status::OK();
}

common::Status SemanticTrajectoryStore::AppendEpisodes(
    core::TrajectoryId id, const std::vector<core::Episode>& episodes,
    size_t start) {
  if (start > episodes.size()) {
    return common::Status::InvalidArgument("append start past the argument");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());
  SEMITRI_RETURN_IF_ERROR(
      CheckAppendStart(common::StatusCode::kFailedPrecondition, "episode",
                       id, start, StoredEpisodes(id)));
  std::span<const core::Episode> tail =
      std::span<const core::Episode>(episodes).subspan(start);
  if (!config_.durable_dir.empty()) {
    common::StateWriter payload;
    payload.PutI64(id);
    payload.PutU64(start);
    payload.PutU64(tail.size());
    for (const core::Episode& e : tail) core::SaveState(e, &payload);
    SEMITRI_RETURN_IF_ERROR(
        LogToWal(WalRecordType::kAppendEpisodes, payload.data()));
  }
  ApplyEpisodesAppend(id, start, tail);
  return common::Status::OK();
}

common::Status SemanticTrajectoryStore::AppendInterpretation(
    const core::StructuredSemanticTrajectory& trajectory, size_t start) {
  if (trajectory.interpretation.empty()) {
    return common::Status::InvalidArgument(
        "interpretation name must be set");
  }
  if (start > trajectory.episodes.size()) {
    return common::Status::InvalidArgument("append start past the argument");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());
  SEMITRI_RETURN_IF_ERROR(CheckAppendStart(
      common::StatusCode::kFailedPrecondition, "semantic episode",
      trajectory.trajectory_id, start,
      StoredSemanticEpisodes(trajectory.trajectory_id,
                             trajectory.interpretation)));
  std::span<const core::SemanticEpisode> tail =
      std::span<const core::SemanticEpisode>(trajectory.episodes)
          .subspan(start);
  if (!config_.durable_dir.empty()) {
    common::StateWriter payload;
    payload.PutU64(start);
    payload.PutI64(trajectory.trajectory_id);
    payload.PutI64(trajectory.object_id);
    payload.PutString(trajectory.interpretation);
    payload.PutU64(tail.size());
    for (const core::SemanticEpisode& e : tail) core::SaveState(e, &payload);
    SEMITRI_RETURN_IF_ERROR(
        LogToWal(WalRecordType::kAppendInterpretation, payload.data()));
  }
  ApplyInterpretationAppend(trajectory, start, tail);
  return common::Status::OK();
}

common::Status SemanticTrajectoryStore::ExitDegradedMode() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!degraded_) return common::Status::OK();
  if (!config_.durable_dir.empty()) {
    // Rotate past the poisoned writer: trim any torn tail the failed
    // write left (so appends resume on a frame boundary), reopen, and
    // prove the disk writes again with an fsync probe. An ambiguous
    // failed-sync frame that did reach the disk survives the trim and
    // replays on recovery — at-least-once for unacknowledged writes,
    // never a silent loss of acknowledged ones.
    wal_.reset();
    auto trimmed = ReplayWal(
        config_.durable_dir + "/" + kWalFile,
        [](WalRecordType, std::string_view) { return common::Status::OK(); },
        /*truncate_torn_tail=*/true, env_);
    SEMITRI_RETURN_IF_ERROR(trimmed.status());
    SEMITRI_RETURN_IF_ERROR(EnsureWal());
    SEMITRI_RETURN_IF_ERROR(wal_->Sync());
  }
  degraded_ = false;
  degraded_reason_.clear();
  return common::Status::OK();
}

bool SemanticTrajectoryStore::ContentEquals(
    const SemanticTrajectoryStore& other) const {
  if (this == &other) return true;
  // Lock both stores in address order so concurrent cross-comparisons
  // cannot deadlock.
  const SemanticTrajectoryStore* first = this < &other ? this : &other;
  const SemanticTrajectoryStore* second = this < &other ? &other : this;
  std::lock_guard<std::mutex> lock_first(first->mutex_);
  std::lock_guard<std::mutex> lock_second(second->mutex_);
  return raw_ == other.raw_ && episodes_ == other.episodes_ &&
         interpretations_ == other.interpretations_;
}

common::Result<core::RawTrajectory> SemanticTrajectoryStore::GetRawTrajectory(
    core::TrajectoryId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = raw_.find(id);
  if (it == raw_.end()) {
    return common::Status::NotFound(
        common::StrFormat("trajectory %lld", static_cast<long long>(id)));
  }
  return it->second;
}

common::Result<std::vector<core::Episode>>
SemanticTrajectoryStore::GetEpisodes(core::TrajectoryId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = episodes_.find(id);
  if (it == episodes_.end()) {
    return common::Status::NotFound(common::StrFormat(
        "episodes of trajectory %lld", static_cast<long long>(id)));
  }
  return it->second;
}

common::Result<core::StructuredSemanticTrajectory>
SemanticTrajectoryStore::GetInterpretation(
    core::TrajectoryId id, const std::string& interpretation) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = interpretations_.find(std::make_pair(id, interpretation));
  if (it == interpretations_.end()) {
    return common::Status::NotFound(common::StrFormat(
        "interpretation '%s' of trajectory %lld", interpretation.c_str(),
        static_cast<long long>(id)));
  }
  return it->second;
}

std::vector<core::TrajectoryId> SemanticTrajectoryStore::ListTrajectories()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<core::TrajectoryId> out;
  out.reserve(raw_.size());
  for (const auto& [id, t] : raw_) out.push_back(id);
  return out;
}

std::vector<std::string> SemanticTrajectoryStore::ListInterpretations(
    core::TrajectoryId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (auto it = interpretations_.lower_bound(std::make_pair(id, std::string()));
       it != interpretations_.end() && it->first.first == id; ++it) {
    out.push_back(it->first.second);
  }
  return out;
}

common::Status SemanticTrajectoryStore::SaveCsv(const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mutex_);
  SEMITRI_RETURN_IF_ERROR(env_->CreateDirs(dir));

  std::vector<std::string> gps_rows;
  for (const auto& [id, t] : raw_) {
    for (const core::GpsPoint& p : t.points) gps_rows.push_back(GpsRow(t, p));
  }
  SEMITRI_RETURN_IF_ERROR(
      WriteCsv(env_, dir + "/gps.csv", kGpsHeader, gps_rows));

  std::vector<std::string> episode_rows;
  for (const auto& [id, eps] : episodes_) {
    for (size_t i = 0; i < eps.size(); ++i) {
      episode_rows.push_back(EpisodeRow(id, i, eps[i]));
    }
  }
  SEMITRI_RETURN_IF_ERROR(
      WriteCsv(env_, dir + "/episodes.csv", kEpisodeHeader, episode_rows));

  std::vector<std::string> semantic_rows;
  for (const auto& [key, t] : interpretations_) {
    for (size_t i = 0; i < t.episodes.size(); ++i) {
      semantic_rows.push_back(SemanticEpisodeRow(t, i, t.episodes[i]));
    }
  }
  return WriteCsv(env_, dir + "/semantic_episodes.csv", kSemanticHeader,
                  semantic_rows);
}

void SemanticTrajectoryStore::ClearLocked() {
  raw_.clear();
  episodes_.clear();
  interpretations_.clear();
  gps_record_count_ = episode_count_ = semantic_episode_count_ = 0;
}

common::Result<SemanticTrajectoryStore::SnapshotRef>
SemanticTrajectoryStore::CurrentSnapshot(const std::string& dir,
                                         common::Env* env) {
  std::string current;
  SEMITRI_RETURN_IF_ERROR(common::ResolveEnv(env)->ReadFileToString(
      dir + "/" + kCurrentFile, &current));
  // "<snapshot name> <byte size>\n", as Checkpoint() publishes it.
  current = current.substr(0, current.find('\n'));
  std::vector<std::string> fields = common::Split(current, ' ');
  SnapshotRef ref;
  size_t bytes = 0;
  if (fields.size() != 2 ||
      !ParseSequence(fields[0], kSnapshotPrefix, &ref.sequence) ||
      !common::ParseSizeT(fields[1], &bytes)) {
    return common::Status::Corruption(
        dir + "/" + kCurrentFile + " does not name a snapshot-<n>.log (\"" +
        current + "\"); checkpoint-<n>/ CSV directories of older builds "
        "are not readable");
  }
  ref.name = fields[0];
  ref.bytes = bytes;
  return ref;
}

common::Result<SemanticTrajectoryStore::RecoveryStats>
SemanticTrajectoryStore::Recover(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  RecoveryStats stats;
  ClearLocked();
  wal_.reset();
  config_.durable_dir = dir;
  next_sequence_ = 0;  // rescanned from `dir` by the next seal/checkpoint
  // A fresh process on a healthy disk starts healthy; if the disk is
  // still failing the first write re-degrades immediately.
  degraded_ = false;
  degraded_reason_.clear();

  SEMITRI_RETURN_IF_ERROR(env_->CreateDirs(dir));

  ReplayGaps gaps;
  auto apply = [this, &gaps](WalRecordType type, std::string_view payload) {
    return ApplyWalRecord(type, payload, &gaps);
  };
  // Snapshots and sealed segments are fsynced before the CURRENT flip
  // or rename publishes them, so a torn frame there is genuine
  // corruption rather than a crash tail: replay fails instead of
  // truncating.
  auto replay_sealed = [&](const std::string& path) -> common::Result<size_t> {
    auto replayed = ReplayWal(path, apply, /*truncate_torn_tail=*/false, env_);
    SEMITRI_RETURN_IF_ERROR(replayed.status());
    if (replayed->torn_bytes_truncated > 0) {
      return common::Status::Corruption("torn or corrupt frame in " + path);
    }
    return replayed->records_applied;
  };

  // The snapshot holds every sealed segment numbered below it.
  size_t covered = 0;
  auto snapshot = CurrentSnapshot(dir, env_);
  if (snapshot.ok()) {
    std::string path = dir + "/" + snapshot->name;
    auto bytes = env_->FileSize(path);
    if (!bytes.ok() || *bytes != snapshot->bytes) {
      return common::Status::Corruption(common::StrFormat(
          "snapshot %s is missing or not the %llu bytes CURRENT records",
          path.c_str(), static_cast<unsigned long long>(snapshot->bytes)));
    }
    SEMITRI_RETURN_IF_ERROR(replay_sealed(path).status());
    stats.checkpoint_loaded = true;
    covered = snapshot->sequence;
  } else if (snapshot.status().code() != common::StatusCode::kNotFound) {
    return snapshot.status();
  }

  // Sealed segments replay before the active log — they hold strictly
  // older records. Those the snapshot covers are skipped: a crash
  // between the log truncation and their removal leaves them behind,
  // and replaying them with no later records would resurrect old rows.
  for (const std::string& name : ListSealedWalSegments(dir, env_)) {
    size_t sequence = 0;
    if (ParseSequence(name, kSealedWalPrefix, &sequence) &&
        sequence <= covered) {
      continue;
    }
    auto records = replay_sealed(dir + "/" + name);
    SEMITRI_RETURN_IF_ERROR(records.status());
    stats.wal_records_replayed += *records;
    ++stats.wal_segments_replayed;
  }

  // Replay the log over the snapshot. Records that predate the
  // snapshot may still be in the log (crash between the CURRENT flip
  // and the log truncation); replaying them is safe because every full
  // Put is a keyed overwrite and every append truncates to its start
  // index before appending, so replay converges to the logged state
  // (an append that meets fewer rows than its start waits for the full
  // put that shrank the entry; see ApplyWalRecord).
  auto replayed = ReplayWal(dir + "/" + kWalFile, apply,
                            /*truncate_torn_tail=*/true, env_);
  SEMITRI_RETURN_IF_ERROR(replayed.status());
  stats.wal_records_replayed += replayed->records_applied;
  stats.wal_torn_bytes_truncated = replayed->torn_bytes_truncated;
  // A gap no later full put repaired: no valid write sequence leaves one.
  if (!gaps.empty()) return gaps.begin()->second;
  return stats;
}

common::Status SemanticTrajectoryStore::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());
  if (config_.durable_dir.empty() || wal_ == nullptr) {
    return common::Status::OK();  // nothing appended yet
  }
  common::Status status = wal_->Sync();
  if (!status.ok()) return EnterDegradedLocked(std::move(status));
  return status;
}

std::vector<std::string> SemanticTrajectoryStore::ListSealedWalSegments(
    const std::string& dir, common::Env* env) {
  std::vector<std::pair<size_t, std::string>> found;
  auto names = common::ResolveEnv(env)->ListDir(dir);
  if (!names.ok()) return {};
  for (const std::string& base : *names) {
    size_t seq = 0;
    if (ParseSequence(base, kSealedWalPrefix, &seq)) {
      found.emplace_back(seq, base);
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [seq, name] : found) out.push_back(std::move(name));
  return out;
}

common::Result<size_t> SemanticTrajectoryStore::TakeSequenceLocked() {
  if (next_sequence_ == 0) {
    // Resume past every number the directory has used — sealed
    // segments, snapshots, and what the scrubber or a crash left of
    // them — so no name ever comes back: a shipper that has verified
    // `wal-000003.log` once skips any later file of that name.
    auto names = env_->ListDir(config_.durable_dir);
    if (!names.ok()) {
      return common::Status::IoError("cannot list " + config_.durable_dir +
                                     ": " + names.status().message());
    }
    size_t highest = 0;
    for (const std::string& name : *names) {
      size_t seq = 0;
      if (ParseSequence(name, kSealedWalPrefix, &seq, /*any_tail=*/true) ||
          ParseSequence(name, kSnapshotPrefix, &seq, /*any_tail=*/true)) {
        highest = std::max(highest, seq);
      }
    }
    next_sequence_ = highest + 1;
  }
  return next_sequence_++;
}

common::Result<std::string> SemanticTrajectoryStore::SealWalSegment() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.durable_dir.empty()) return std::string();
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());
  std::string active = config_.durable_dir + "/" + kWalFile;
  auto size = env_->FileSize(active);
  if (!size.ok() || *size == 0) return std::string();  // nothing to seal
  auto sequence = TakeSequenceLocked();
  SEMITRI_RETURN_IF_ERROR(sequence.status());
  // fsync before the rename publishes the sealed name: once visible,
  // a segment is complete, so replay and shipping never see a tail in
  // flight.
  if (wal_ != nullptr) {
    common::Status synced = wal_->Sync();
    if (!synced.ok()) return EnterDegradedLocked(std::move(synced));
  }
  wal_.reset();
  std::string name = common::StrFormat("%s%06zu%s", kSealedWalPrefix,
                                       *sequence, kNumberedSuffix);
  common::Status renamed =
      env_->RenameFile(active, config_.durable_dir + "/" + name);
  if (!renamed.ok()) {
    return common::Status::IoError("cannot seal wal segment " +
                                   config_.durable_dir + "/" + name + ": " +
                                   renamed.message());
  }
  (void)env_->SyncDir(config_.durable_dir);  // best-effort, like before
  // Create the next active log now, empty, so the next Put's EnsureWal()
  // only opens it: creating a file can take half a millisecond on ext4,
  // a stall the first Put after every seal would otherwise pay.
  // Best-effort: if this fails, that EnsureWal() creates the file, or
  // reports the fault, as before.
  (void)env_->WriteStringToFile(active, "", /*sync=*/false);
  return name;
}

common::Status SemanticTrajectoryStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.durable_dir.empty()) return common::Status::OK();
  SEMITRI_RETURN_IF_ERROR(CheckWritableLocked());

  common::FaultAction action = SEMITRI_FAULT_FIRE("wal_checkpoint");
  if (action == common::FaultAction::kFail) {
    // Injected failure before anything is written: the old snapshot
    // and the full WAL stay authoritative.
    return common::Status::IoError("injected checkpoint failure");
  }
  SEMITRI_RETURN_IF_ERROR(EnsureWal());  // creates durable_dir

  // The snapshot takes the next sequence number, so it sorts after
  // every sealed segment it holds and before every later one.
  auto sequence = TakeSequenceLocked();
  SEMITRI_RETURN_IF_ERROR(sequence.status());
  std::string snapshot;
  for (const auto& [id, t] : raw_) {
    AppendWalFrame(WalRecordType::kPutRawTrajectory, PutPayload(t), &snapshot);
  }
  for (const auto& [id, eps] : episodes_) {
    AppendWalFrame(WalRecordType::kPutEpisodes, PutPayload(id, eps),
                   &snapshot);
  }
  for (const auto& [key, t] : interpretations_) {
    AppendWalFrame(WalRecordType::kPutInterpretation, PutPayload(t),
                   &snapshot);
  }
  std::string name = common::StrFormat("%s%06zu%s", kSnapshotPrefix,
                                       *sequence, kNumberedSuffix);
  SEMITRI_RETURN_IF_ERROR(env_->WriteStringToFile(
      config_.durable_dir + "/" + name, snapshot, /*sync=*/true));

  if (action == common::FaultAction::kCrash) {
    // Simulated crash after the new snapshot is on disk but before the
    // CURRENT flip: recovery ignores the orphan and uses the old
    // snapshot + WAL.
    return common::Status::IoError("simulated crash during checkpoint");
  }

  // Flip CURRENT via rename — the atomic commit point of the
  // checkpoint. Before it the old snapshot is authoritative, after it
  // the new one is; there is no intermediate state.
  std::string current_path = config_.durable_dir + "/" + kCurrentFile;
  SEMITRI_RETURN_IF_ERROR(env_->WriteStringToFile(
      current_path + ".tmp",
      common::StrFormat("%s %zu\n", name.c_str(), snapshot.size()),
      /*sync=*/true));
  common::Status flipped =
      env_->RenameFile(current_path + ".tmp", current_path);
  if (!flipped.ok()) {
    // The flip never happened: the old snapshot stays authoritative.
    // Sweep the tmp so a later retry starts clean.
    (void)env_->RemoveFile(current_path + ".tmp");
    return common::Status::IoError("cannot commit " + current_path + ": " +
                                   flipped.message());
  }
  (void)env_->SyncDir(config_.durable_dir);  // best-effort, like before

  // The snapshot holds everything the log held; empty it.
  SEMITRI_RETURN_IF_ERROR(wal_->Truncate());

  // GC the sealed segments and older snapshots (orphans of crashed
  // checkpoints included) numbered below the new snapshot. A failed
  // removal leaves garbage but never unsound state — Recover() skips
  // what the snapshot covers — and the next checkpoint retries.
  auto entries = env_->ListDir(config_.durable_dir);
  if (entries.ok()) {
    for (const std::string& base : *entries) {
      size_t seq = 0;
      if ((ParseSequence(base, kSealedWalPrefix, &seq) ||
           ParseSequence(base, kSnapshotPrefix, &seq)) &&
          seq < *sequence) {
        (void)env_->RemoveFile(config_.durable_dir + "/" + base);
      }
    }
  }
  return common::Status::OK();
}

}  // namespace semitri::store
