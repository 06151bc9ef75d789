#include "stream/session_manager.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/serial.h"
#include "store/wal.h"

namespace semitri::stream {

namespace {

void Accumulate(const AnnotationSession::Stats& from,
                SessionManager::Stats* to) {
  to->points_fed += from.detector.points_fed;
  to->points_rejected += from.detector.points_rejected;
  to->episodes_closed += from.detector.episodes_closed;
  to->trajectories_closed += from.detector.trajectories_closed;
  to->trajectories_discarded += from.detector.trajectories_discarded;
  to->forced_splits += from.detector.forced_splits;
  to->annotation_passes += from.annotation_passes;
}

void Accumulate(const AnnotationSession::Stats& from,
                AnnotationSession::Stats* to) {
  to->detector.points_fed += from.detector.points_fed;
  to->detector.points_rejected += from.detector.points_rejected;
  to->detector.episodes_closed += from.detector.episodes_closed;
  to->detector.trajectories_closed += from.detector.trajectories_closed;
  to->detector.trajectories_discarded += from.detector.trajectories_discarded;
  to->detector.forced_splits += from.detector.forced_splits;
  to->annotation_passes += from.annotation_passes;
}

}  // namespace

SessionManager::SessionManager(const core::SemiTriPipeline* pipeline,
                               SessionManagerConfig config,
                               const common::Clock* clock)
    : pipeline_(pipeline),
      config_(config),
      env_(common::ResolveEnv(config_.env)),
      clock_(clock != nullptr ? clock : common::Clock::Real()) {}

SessionManager::Sessions::iterator SessionManager::InstallLocked(
    core::ObjectId object_id, std::unique_ptr<AnnotationSession> session,
    int64_t now) {
  auto it = sessions_.try_emplace(object_id).first;
  it->second.session = std::move(session);
  it->second.last_feed_nanos = now;
  it->second.lru = lru_.insert(lru_.end(), object_id);
  RechargeLocked(it->second);
  return it;
}

void SessionManager::RechargeLocked(Entry& entry) {
  size_t buffered = entry.session->buffered_points();
  buffered_fixes_ = buffered_fixes_ - entry.charged_fixes + buffered;
  entry.charged_fixes = buffered;
}

common::Status SessionManager::AdmitLocked(core::ObjectId object_id,
                                           bool new_session) {
  const AdmissionConfig& adm = config_.admission;
  auto over_budget = [&] {
    size_t sessions = sessions_.size() + (new_session ? 1 : 0);
    return (adm.max_sessions > 0 && sessions > adm.max_sessions) ||
           (adm.max_buffered_fixes > 0 &&
            buffered_fixes_ + 1 > adm.max_buffered_fixes);
  };
  while (over_budget()) {
    // Never shed the session we are admitting work for.
    auto victim = lru_.begin();
    if (victim != lru_.end() && *victim == object_id) ++victim;
    if (victim == lru_.end()) {
      ++(new_session ? admission_rejected_sessions_
                     : overload_rejected_fixes_);
      return common::Status::ResourceExhausted(
          "admission budget exceeded and nothing left to shed");
    }
    // Shedding goes through the flushing Close path: the open
    // trajectory is finalized into the (durable) store before the
    // session is dropped, so shed rows survive and nothing is lost.
    // Shedding is best-effort; a flush failure must not abort the
    // overload response, so the status is deliberately dropped.
    (void)RetireLocked(sessions_.find(*victim));
    ++sessions_shed_;
  }
  return common::Status::OK();
}

common::Result<AnnotationSession::FeedResult> SessionManager::Feed(
    core::ObjectId object_id, const core::GpsPoint& fix) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Deterministic overload simulation: an armed "admission_reject" site
  // turns this feed away exactly as a full system would.
  if (SEMITRI_FAULT_FIRE("admission_reject") != common::FaultAction::kNone) {
    ++overload_rejected_fixes_;
    return common::Status::ResourceExhausted(
        "injected admission rejection (fault site admission_reject)");
  }
  auto it = sessions_.find(object_id);
  const bool new_session = it == sessions_.end();
  SEMITRI_RETURN_IF_ERROR(AdmitLocked(object_id, new_session));

  const int64_t now = clock_->NowNanos();
  if (new_session) {
    // A reconnecting object resumes its trajectory-id cursor where
    // the retired session stopped; only a genuinely new object starts
    // at the base of its id block.
    core::TrajectoryId first_id = object_id * config_.ids_per_object;
    auto resume = resume_ids_.find(object_id);
    if (resume != resume_ids_.end()) first_id = resume->second;
    it = InstallLocked(object_id,
                       std::make_unique<AnnotationSession>(
                           pipeline_, object_id, config_.session, first_id),
                       now);
    ++opened_;
  } else {
    it->second.last_feed_nanos = now;
    lru_.splice(lru_.end(), lru_, it->second.lru);
  }
  common::Result<AnnotationSession::FeedResult> result =
      it->second.session->Feed(fix);
  // A rejected fix adds nothing; a trajectory close releases the whole
  // buffer.
  RechargeLocked(it->second);
  return result;
}

common::Status SessionManager::Flush(core::ObjectId object_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(object_id);
  if (it == sessions_.end()) {
    return common::Status::NotFound("no live session for this object");
  }
  common::Status status = it->second.session->Flush();
  // A flush finalizes the open trajectory: release its buffer charge.
  RechargeLocked(it->second);
  return status;
}

common::Status SessionManager::RetireLocked(Sessions::iterator it) {
  // Eviction goes through the flushing Close path: provisional rows of
  // the open trajectory are finalized before the session is dropped.
  // Only when that flush itself fails is buffered work actually lost —
  // counted so operators can see degraded evictions in stats().
  AnnotationSession& session = *it->second.session;
  bool had_open = session.has_open_state();
  common::Status status = session.Flush();
  if (!status.ok() && had_open) ++evicted_with_data_loss_;
  Accumulate(session.stats(), &retired_);
  ++evicted_;
  // Post-flush cursor (the flush may have consumed an id finalizing
  // the open trajectory): where a reconnecting session resumes.
  resume_ids_[it->first] = session.detector().next_trajectory_id();
  buffered_fixes_ -= it->second.charged_fixes;
  lru_.erase(it->second.lru);
  sessions_.erase(it);
  return status;
}

common::Status SessionManager::Close(core::ObjectId object_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(object_id);
  if (it == sessions_.end()) {
    return common::Status::NotFound("no live session for this object");
  }
  return RetireLocked(it);
}

common::Status SessionManager::CloseAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  common::Status first = common::Status::OK();
  while (!sessions_.empty()) {
    common::Status status = RetireLocked(sessions_.begin());
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

common::Result<size_t> SessionManager::EvictIdle(double max_idle_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t cutoff =
      clock_->NowNanos() - static_cast<int64_t>(max_idle_seconds * 1e9);
  common::Status first = common::Status::OK();
  size_t evicted = 0;
  // Feed ticks rise along lru_, so the idle sessions are a prefix.
  while (!lru_.empty()) {
    auto it = sessions_.find(lru_.front());
    if (it->second.last_feed_nanos > cutoff) break;
    common::Status status = RetireLocked(it);
    if (!status.ok() && first.ok()) first = status;
    ++evicted;
  }
  if (!first.ok()) return first;
  return evicted;
}

bool SessionManager::HasLiveSession(core::ObjectId object_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.find(object_id) != sessions_.end();
}

size_t SessionManager::ActiveSessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

common::Status SessionManager::Checkpoint(const std::string& path) const {
  common::StateWriter payload;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    payload.PutU64(opened_);
    payload.PutU64(evicted_);
    payload.PutU64(evicted_with_data_loss_);
    payload.PutU64(retired_.detector.points_fed);
    payload.PutU64(retired_.detector.points_rejected);
    payload.PutU64(retired_.detector.episodes_closed);
    payload.PutU64(retired_.detector.trajectories_closed);
    payload.PutU64(retired_.detector.trajectories_discarded);
    payload.PutU64(retired_.detector.forced_splits);
    payload.PutU64(retired_.annotation_passes);

    payload.PutU64(resume_ids_.size());
    for (const auto& [object_id, next_id] : resume_ids_) {
      payload.PutI64(object_id);
      payload.PutI64(next_id);
    }

    payload.PutU64(sessions_.size());
    for (const auto& [object_id, entry] : sessions_) {
      payload.PutI64(object_id);
      entry.session->SaveState(&payload);
    }
  }

  // One WAL frame (store/wal.h): a torn or bit-flipped file is
  // rejected as Corruption, never half-read.
  std::string bytes;
  store::AppendWalFrame(store::WalRecordType::kSessionCheckpoint,
                        payload.data(), &bytes);

  // tmp + fsync + rename: the previous checkpoint stays intact until
  // the new one is fully on disk. A failed write or flip sweeps its
  // own tmp so retries start clean (and a full disk is not made worse
  // by staging garbage).
  std::string tmp = path + ".tmp";
  common::Status wrote = env_->WriteStringToFile(tmp, bytes, /*sync=*/true);
  if (wrote.ok()) {
    wrote = env_->RenameFile(tmp, path);
    if (!wrote.ok()) {
      wrote = common::Status::IoError("cannot commit checkpoint " + path +
                                      ": " + wrote.message());
    }
  }
  if (!wrote.ok()) {
    (void)env_->RemoveFile(tmp);
    return wrote;
  }
  return common::Status::OK();
}

common::Status SessionManager::Restore(const std::string& path) {
  std::string bytes;
  {
    common::Status read = env_->ReadFileToString(path, &bytes);
    if (!read.ok()) {
      return common::Status::IoError("cannot open " + path + ": " +
                                     read.message());
    }
  }
  // Exactly one intact session-checkpoint frame, and nothing after it.
  std::string_view payload;
  size_t frames = 0;
  auto intact = store::DecodeWalFrames(
      bytes, [&](store::WalRecordType type, std::string_view body) {
        if (type != store::WalRecordType::kSessionCheckpoint) {
          return common::Status::Corruption("not a session checkpoint file");
        }
        payload = body;
        ++frames;
        return common::Status::OK();
      });
  SEMITRI_RETURN_IF_ERROR(intact.status());
  if (frames != 1 || *intact != bytes.size()) {
    return common::Status::Corruption(
        "session checkpoint is not exactly one intact frame");
  }

  // Parse everything before touching the manager: a Corruption return
  // leaves it as it was.
  common::StateReader r(payload);
  uint64_t opened = 0;
  uint64_t evicted = 0;
  uint64_t data_loss = 0;
  AnnotationSession::Stats retired;
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&opened));
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&evicted));
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&data_loss));
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&retired.detector.points_fed));
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&retired.detector.points_rejected));
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&retired.detector.episodes_closed));
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&retired.detector.trajectories_closed));
  SEMITRI_RETURN_IF_ERROR(
      r.GetU64(&retired.detector.trajectories_discarded));
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&retired.detector.forced_splits));
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&retired.annotation_passes));

  std::map<core::ObjectId, core::TrajectoryId> resume;
  uint64_t resume_count = 0;
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&resume_count));
  if (resume_count > r.remaining()) {
    return common::Status::Corruption("resume cursor count exceeds data");
  }
  for (uint64_t i = 0; i < resume_count; ++i) {
    int64_t object_id = 0;
    int64_t next_id = 0;
    SEMITRI_RETURN_IF_ERROR(r.GetI64(&object_id));
    SEMITRI_RETURN_IF_ERROR(r.GetI64(&next_id));
    resume[object_id] = next_id;
  }

  uint64_t live = 0;
  SEMITRI_RETURN_IF_ERROR(r.GetU64(&live));
  if (live > r.remaining()) {
    return common::Status::Corruption("session count exceeds data");
  }
  std::map<core::ObjectId, std::unique_ptr<AnnotationSession>> sessions;
  for (uint64_t i = 0; i < live; ++i) {
    int64_t object_id = 0;
    SEMITRI_RETURN_IF_ERROR(r.GetI64(&object_id));
    auto session = std::make_unique<AnnotationSession>(
        pipeline_, object_id, config_.session,
        object_id * config_.ids_per_object);
    SEMITRI_RETURN_IF_ERROR(session->RestoreState(&r));
    if (!sessions.try_emplace(object_id, std::move(session)).second) {
      return common::Status::Corruption("duplicate session in checkpoint");
    }
  }
  if (!r.AtEnd()) {
    return common::Status::Corruption("trailing bytes in checkpoint");
  }

  // Swap the parsed state in; budget accounting and the
  // least-recently-fed order restart from the restored sessions.
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t now = clock_->NowNanos();
  sessions_.clear();
  lru_.clear();
  buffered_fixes_ = 0;
  for (auto& [object_id, session] : sessions) {
    InstallLocked(object_id, std::move(session), now);
  }
  resume_ids_ = std::move(resume);
  opened_ = static_cast<size_t>(opened);
  evicted_ = static_cast<size_t>(evicted);
  evicted_with_data_loss_ = static_cast<size_t>(data_loss);
  retired_ = retired;
  sessions_restored_ = sessions_.size();
  resume_cursors_restored_ = resume_ids_.size();
  return common::Status::OK();
}

common::Status SessionManager::PackSession(core::ObjectId object_id,
                                           common::StateWriter* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(object_id);
  auto resume = resume_ids_.find(object_id);
  if (it == sessions_.end() && resume == resume_ids_.end()) {
    return common::Status::NotFound(
        "no live session or resume cursor for this object");
  }
  out->PutI64(object_id);
  if (it != sessions_.end()) {
    out->PutU8(1);
    it->second.session->SaveState(out);
  } else {
    // Idle object: only the trajectory-id cursor moves — the
    // destination must keep ascending through the id block when the
    // object reconnects there.
    out->PutU8(0);
    out->PutI64(resume->second);
  }
  return common::Status::OK();
}

common::Status SessionManager::AdoptSession(core::ObjectId object_id,
                                            common::StateReader* in) {
  int64_t packed_object = 0;
  SEMITRI_RETURN_IF_ERROR(in->GetI64(&packed_object));
  if (packed_object != object_id) {
    return common::Status::Corruption(
        "packed session belongs to a different object");
  }
  uint8_t has_session = 0;
  SEMITRI_RETURN_IF_ERROR(in->GetU8(&has_session));
  int64_t resume_id = 0;
  std::unique_ptr<AnnotationSession> session;
  if (has_session == 0) {
    SEMITRI_RETURN_IF_ERROR(in->GetI64(&resume_id));
  } else {
    session = std::make_unique<AnnotationSession>(
        pipeline_, object_id, config_.session,
        object_id * config_.ids_per_object);
    SEMITRI_RETURN_IF_ERROR(session->RestoreState(in));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.find(object_id) != sessions_.end()) {
    return common::Status::AlreadyExists(
        "a live session already exists for this object");
  }
  if (session == nullptr) {
    resume_ids_[object_id] = resume_id;
    return common::Status::OK();
  }
  InstallLocked(object_id, std::move(session), clock_->NowNanos());
  ++opened_;
  // The adopted state is authoritative; a stale cursor from a prior
  // ownership stint here must not shadow it.
  resume_ids_.erase(object_id);
  return common::Status::OK();
}

SessionManager::Stats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.active_sessions = sessions_.size();
  out.sessions_opened = opened_;
  out.sessions_evicted = evicted_;
  out.evictions_with_data_loss = evicted_with_data_loss_;
  Accumulate(retired_, &out);
  for (const auto& [id, entry] : sessions_) {
    Accumulate(entry.session->stats(), &out);
  }
  out.buffered_fixes = buffered_fixes_;
  out.sessions_shed = sessions_shed_;
  out.admission_rejected_sessions = admission_rejected_sessions_;
  out.overload_rejected_fixes = overload_rejected_fixes_;
  out.sessions_restored = sessions_restored_;
  out.resume_cursors_restored = resume_cursors_restored_;
  return out;
}

core::HealthSnapshot SessionManager::Health() const {
  core::HealthSnapshot snapshot = pipeline_->Health();
  const AdmissionConfig& adm = config_.admission;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.sessions = {sessions_.size(), adm.max_sessions};
  snapshot.buffered_fixes = {buffered_fixes_, adm.max_buffered_fixes};
  snapshot.sessions_shed = sessions_shed_;
  snapshot.admission_rejected_sessions = admission_rejected_sessions_;
  snapshot.overload_rejected_fixes = overload_rejected_fixes_;
  snapshot.evictions_with_data_loss = evicted_with_data_loss_;
  return snapshot;
}

}  // namespace semitri::stream
