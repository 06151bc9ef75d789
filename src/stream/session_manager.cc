#include "stream/session_manager.h"

#include <utility>

#include "common/check.h"
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

// --- ActivityTracker --------------------------------------------------

void SessionManager::ActivityTracker::Touch(core::ObjectId id,
                                            int64_t tick) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = latest_.try_emplace(id, tick);
  if (inserted) {
    // First sighting: the object's single heap entry.
    heap_.push({tick, id});
    return;
  }
  // Known object: only advance the authoritative tick. Its existing
  // heap entry goes stale and is re-pushed lazily on pop, keeping the
  // one-entry-per-object invariant (heap size stays O(live sessions)).
  if (tick > it->second) it->second = tick;
}

void SessionManager::ActivityTracker::Remove(core::ObjectId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  latest_.erase(id);
}

std::optional<std::pair<core::ObjectId, int64_t>>
SessionManager::ActivityTracker::PopOldest(int64_t cutoff) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!heap_.empty()) {
    HeapEntry top = heap_.top();
    auto it = latest_.find(top.id);
    if (it == latest_.end()) {
      heap_.pop();  // removed object: drop the dead entry
      continue;
    }
    if (it->second > top.tick) {
      heap_.pop();  // stale: re-push with the authoritative tick
      heap_.push({it->second, top.id});
      continue;
    }
    if (top.tick > cutoff) return std::nullopt;  // oldest is too fresh
    heap_.pop();
    latest_.erase(it);
    return std::make_pair(top.id, top.tick);
  }
  return std::nullopt;
}

void SessionManager::ActivityTracker::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  heap_ = {};
  latest_.clear();
}

// --- SessionManager ---------------------------------------------------

SessionManager::SessionManager(const core::SemiTriPipeline* pipeline,
                               SessionManagerConfig config,
                               const common::Clock* clock)
    : pipeline_(pipeline),
      config_(config),
      env_(common::ResolveEnv(config_.env)),
      clock_(clock != nullptr ? clock : common::Clock::Real()) {
  SEMITRI_CHECK(config_.num_shards > 0) << "num_shards must be positive";
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionManager::Shard& SessionManager::ShardFor(
    core::ObjectId object_id) const {
  // Fibonacci mixing: consecutive object ids spread across shards.
  uint64_t h = static_cast<uint64_t>(object_id) * 0x9E3779B97F4A7C15ull;
  return *shards_[h % shards_.size()];
}

bool SessionManager::OverBudget() const {
  const AdmissionConfig& adm = config_.admission;
  size_t sessions = live_sessions_.load(std::memory_order_relaxed);
  int64_t fixes = buffered_fixes_.load(std::memory_order_relaxed);
  size_t fixes_u = fixes > 0 ? static_cast<size_t>(fixes) : 0;
  if (adm.max_sessions > 0 && sessions > adm.max_sessions) return true;
  if (adm.max_buffered_fixes > 0 && fixes_u > adm.max_buffered_fixes) {
    return true;
  }
  if (adm.max_buffered_bytes > 0 &&
      ApproxBytes(fixes_u, sessions) > adm.max_buffered_bytes) {
    return true;
  }
  return false;
}

bool SessionManager::ShedOldestIdle(core::ObjectId exclude) {
  for (;;) {
    std::optional<std::pair<core::ObjectId, int64_t>> oldest =
        activity_.PopOldest();
    if (!oldest.has_value()) return false;
    if (oldest->first == exclude) {
      // Never shed the session we are admitting work for; put it back
      // and look for the next-oldest candidate once, below.
      std::optional<std::pair<core::ObjectId, int64_t>> next =
          activity_.PopOldest();
      activity_.Touch(oldest->first, oldest->second);
      if (!next.has_value()) return false;
      oldest = next;
    }
    Shard& shard = ShardFor(oldest->first);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.sessions.find(oldest->first);
    if (it == shard.sessions.end()) continue;  // raced with Close
    // Shedding goes through the flushing Close path: the open
    // trajectory is finalized into the (durable) store before the
    // session is dropped, so shed rows survive and nothing is lost.
    // Shedding is best-effort; a flush failure must not abort the
    // overload response, so the status is deliberately dropped.
    (void)RetireLocked(shard, it);
    sessions_shed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
}

common::Status SessionManager::ResolveOverload(core::ObjectId exclude) {
  switch (config_.admission.overload_policy) {
    case OverloadPolicy::kRejectNew:
      return common::Status::ResourceExhausted(
          "admission budget exceeded (policy: reject-new)");
    case OverloadPolicy::kShedOldestIdle:
      while (OverBudget()) {
        if (!ShedOldestIdle(exclude)) {
          return common::Status::ResourceExhausted(
              "admission budget exceeded and nothing left to shed");
        }
      }
      return common::Status::OK();
  }
  return common::Status::Internal("unknown overload policy");
}

common::Result<AnnotationSession::FeedResult> SessionManager::Feed(
    core::ObjectId object_id, const core::GpsPoint& fix) {
  // Deterministic overload simulation: an armed "admission_reject" site
  // turns this feed away exactly as a full system would.
  if (SEMITRI_FAULT_FIRE("admission_reject") != common::FaultAction::kNone) {
    overload_rejected_fixes_.fetch_add(1, std::memory_order_relaxed);
    return common::Status::ResourceExhausted(
        "injected admission rejection (fault site admission_reject)");
  }

  Shard& shard = ShardFor(object_id);

  // Optimistically claim one buffered fix (reconciled to the true delta
  // after the detector consumed it, rolled back on rejection).
  buffered_fixes_.fetch_add(1, std::memory_order_relaxed);
  bool claimed_session = false;
  auto rollback = [&]() {
    buffered_fixes_.fetch_sub(1, std::memory_order_relaxed);
    if (claimed_session) {
      live_sessions_.fetch_sub(1, std::memory_order_relaxed);
    }
  };

  // Does the session exist yet? (Short lock; admission must not hold a
  // shard lock, since shedding locks *other* shards.)
  bool exists;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    exists = shard.sessions.find(object_id) != shard.sessions.end();
  }
  if (!exists) {
    live_sessions_.fetch_add(1, std::memory_order_relaxed);
    claimed_session = true;
  }
  if (OverBudget()) {
    common::Status admitted = ResolveOverload(object_id);
    if (!admitted.ok()) {
      rollback();
      if (claimed_session) {
        admission_rejected_sessions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        overload_rejected_fixes_.fetch_add(1, std::memory_order_relaxed);
      }
      return admitted;
    }
  }

  const int64_t now = clock_->NowNanos();
  common::Result<AnnotationSession::FeedResult> result(
      AnnotationSession::FeedResult{});
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.sessions.try_emplace(object_id);
    if (inserted) {
      // A reconnecting object resumes its trajectory-id cursor where
      // the retired session stopped; only a genuinely new object
      // starts at the base of its id block.
      core::TrajectoryId first_id = object_id * config_.ids_per_object;
      auto resume = shard.resume_ids.find(object_id);
      if (resume != shard.resume_ids.end()) first_id = resume->second;
      it->second.session = std::make_unique<AnnotationSession>(
          pipeline_, object_id, config_.session, first_id);
      ++shard.opened;
      if (!claimed_session) {
        // The session vanished between the existence check and now
        // (closed/shed concurrently); account for the re-creation.
        live_sessions_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (claimed_session) {
      // Raced with a concurrent creator: give the claim back.
      live_sessions_.fetch_sub(1, std::memory_order_relaxed);
      claimed_session = false;
    }
    Entry& entry = it->second;
    entry.last_feed_nanos = now;
    result = entry.session->Feed(fix);
    // Reconcile the optimistic +1 claim to the session's true buffered
    // count (a rejected fix adds nothing; a trajectory close releases
    // the whole buffer).
    size_t buffered = entry.session->buffered_points();
    int64_t delta = static_cast<int64_t>(buffered) -
                    static_cast<int64_t>(entry.charged_fixes);
    entry.charged_fixes = buffered;
    buffered_fixes_.fetch_add(delta - 1, std::memory_order_relaxed);
  }
  activity_.Touch(object_id, now);
  return result;
}

common::Status SessionManager::Flush(core::ObjectId object_id) {
  Shard& shard = ShardFor(object_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sessions.find(object_id);
  if (it == shard.sessions.end()) {
    return common::Status::NotFound("no live session for this object");
  }
  common::Status status = it->second.session->Flush();
  // A flush finalizes the open trajectory: release its buffer charge.
  size_t buffered = it->second.session->buffered_points();
  int64_t delta = static_cast<int64_t>(buffered) -
                  static_cast<int64_t>(it->second.charged_fixes);
  it->second.charged_fixes = buffered;
  buffered_fixes_.fetch_add(delta, std::memory_order_relaxed);
  return status;
}

common::Status SessionManager::RetireLocked(
    Shard& shard, std::map<core::ObjectId, Entry>::iterator it) {
  // Eviction goes through the flushing Close path: provisional rows of
  // the open trajectory are finalized before the session is dropped.
  // Only when that flush itself fails is buffered work actually lost —
  // counted so operators can see degraded evictions in stats().
  bool had_open = it->second.session->has_open_state();
  common::Status status = it->second.session->Flush();
  if (!status.ok() && had_open) ++shard.evicted_with_data_loss;
  Accumulate(it->second.session->stats(), &shard.retired);
  ++shard.evicted;
  // Post-flush cursor (the flush may have consumed an id finalizing
  // the open trajectory): where a reconnecting session resumes.
  shard.resume_ids[it->first] =
      it->second.session->detector().next_trajectory_id();
  // Release the session's global budget charges and drop it from the
  // activity heap (shard -> tracker lock order, same as Feed).
  buffered_fixes_.fetch_sub(static_cast<int64_t>(it->second.charged_fixes),
                            std::memory_order_relaxed);
  live_sessions_.fetch_sub(1, std::memory_order_relaxed);
  activity_.Remove(it->first);
  shard.sessions.erase(it);
  return status;
}

common::Status SessionManager::Close(core::ObjectId object_id) {
  Shard& shard = ShardFor(object_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sessions.find(object_id);
  if (it == shard.sessions.end()) {
    return common::Status::NotFound("no live session for this object");
  }
  return RetireLocked(shard, it);
}

common::Status SessionManager::CloseAll() {
  common::Status first = common::Status::OK();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    while (!shard->sessions.empty()) {
      common::Status status =
          RetireLocked(*shard, shard->sessions.begin());
      if (!status.ok() && first.ok()) first = status;
    }
  }
  return first;
}

common::Result<size_t> SessionManager::EvictIdle(double max_idle_seconds) {
  const int64_t cutoff =
      clock_->NowNanos() - static_cast<int64_t>(max_idle_seconds * 1e9);
  common::Status first = common::Status::OK();
  size_t evicted = 0;
  // Heap-driven: pop candidates whose last activity predates the
  // cutoff; the shard's own last_feed is re-checked under the lock (a
  // feed may have slipped in after the pop — such a session is put
  // back, not evicted).
  for (;;) {
    std::optional<std::pair<core::ObjectId, int64_t>> oldest =
        activity_.PopOldest(cutoff);
    if (!oldest.has_value()) break;
    Shard& shard = ShardFor(oldest->first);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.sessions.find(oldest->first);
    if (it == shard.sessions.end()) continue;  // raced with Close
    if (it->second.last_feed_nanos > cutoff) {
      activity_.Touch(oldest->first, it->second.last_feed_nanos);
      continue;
    }
    common::Status status = RetireLocked(shard, it);
    if (!status.ok() && first.ok()) first = status;
    ++evicted;
  }
  if (!first.ok()) return first;
  return evicted;
}

bool SessionManager::HasLiveSession(core::ObjectId object_id) const {
  Shard& shard = ShardFor(object_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.sessions.find(object_id) != shard.sessions.end();
}

size_t SessionManager::ActiveSessions() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->sessions.size();
  }
  return total;
}

common::Status SessionManager::Checkpoint(const std::string& path) const {
  common::StateWriter payload;
  // Retired counters, aggregated across shards (shard assignment is a
  // function of object id, so per-shard attribution is reconstructed
  // implicitly on restore; the aggregates land in shard 0).
  size_t opened = 0;
  size_t evicted = 0;
  size_t data_loss = 0;
  AnnotationSession::Stats retired;
  size_t live = 0;
  std::map<core::ObjectId, core::TrajectoryId> resume;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    opened += shard->opened;
    evicted += shard->evicted;
    data_loss += shard->evicted_with_data_loss;
    Accumulate(shard->retired, &retired);
    live += shard->sessions.size();
    for (const auto& [object_id, next_id] : shard->resume_ids) {
      resume[object_id] = next_id;
    }
  }
  payload.PutU64(opened);
  payload.PutU64(evicted);
  payload.PutU64(data_loss);
  payload.PutU64(retired.detector.points_fed);
  payload.PutU64(retired.detector.points_rejected);
  payload.PutU64(retired.detector.episodes_closed);
  payload.PutU64(retired.detector.trajectories_closed);
  payload.PutU64(retired.detector.trajectories_discarded);
  payload.PutU64(retired.detector.forced_splits);
  payload.PutU64(retired.annotation_passes);

  payload.PutU64(resume.size());
  for (const auto& [object_id, next_id] : resume) {
    payload.PutI64(object_id);
    payload.PutI64(next_id);
  }

  payload.PutU64(live);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [object_id, entry] : shard->sessions) {
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

  const int64_t now = clock_->NowNanos();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->sessions.clear();
    shard->opened = 0;
    shard->evicted = 0;
    shard->evicted_with_data_loss = 0;
    shard->retired = {};
    shard->resume_ids.clear();
  }
  for (const auto& [object_id, next_id] : resume) {
    Shard& shard = ShardFor(object_id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.resume_ids[object_id] = next_id;
  }
  // Budget accounting and the activity heap restart from the restored
  // population (recharged below, per session).
  activity_.Clear();
  live_sessions_.store(0, std::memory_order_relaxed);
  buffered_fixes_.store(0, std::memory_order_relaxed);
  {
    Shard& first = *shards_.front();
    std::lock_guard<std::mutex> lock(first.mutex);
    first.opened = static_cast<size_t>(opened);
    first.evicted = static_cast<size_t>(evicted);
    first.evicted_with_data_loss = static_cast<size_t>(data_loss);
    first.retired = retired;
  }

  for (uint64_t i = 0; i < live; ++i) {
    int64_t object_id = 0;
    SEMITRI_RETURN_IF_ERROR(r.GetI64(&object_id));
    auto session = std::make_unique<AnnotationSession>(
        pipeline_, object_id, config_.session,
        object_id * config_.ids_per_object);
    SEMITRI_RETURN_IF_ERROR(session->RestoreState(&r));
    size_t buffered = session->buffered_points();
    Shard& shard = ShardFor(object_id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    Entry& entry = shard.sessions[object_id];
    entry.session = std::move(session);
    entry.last_feed_nanos = now;
    entry.charged_fixes = buffered;
    live_sessions_.fetch_add(1, std::memory_order_relaxed);
    buffered_fixes_.fetch_add(static_cast<int64_t>(buffered),
                              std::memory_order_relaxed);
    activity_.Touch(object_id, now);
  }
  sessions_restored_.store(static_cast<size_t>(live),
                           std::memory_order_relaxed);
  resume_cursors_restored_.store(resume.size(), std::memory_order_relaxed);
  if (!r.AtEnd()) {
    return common::Status::Corruption("trailing bytes in checkpoint");
  }
  return common::Status::OK();
}

common::Status SessionManager::PackSession(core::ObjectId object_id,
                                           common::StateWriter* out) const {
  Shard& shard = ShardFor(object_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sessions.find(object_id);
  auto resume = shard.resume_ids.find(object_id);
  if (it == shard.sessions.end() && resume == shard.resume_ids.end()) {
    return common::Status::NotFound(
        "no live session or resume cursor for this object");
  }
  out->PutI64(object_id);
  if (it != shard.sessions.end()) {
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
  Shard& shard = ShardFor(object_id);

  if (has_session == 0) {
    int64_t resume_id = 0;
    SEMITRI_RETURN_IF_ERROR(in->GetI64(&resume_id));
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.sessions.find(object_id) != shard.sessions.end()) {
      return common::Status::AlreadyExists(
          "a live session already exists for this object");
    }
    shard.resume_ids[object_id] = resume_id;
    return common::Status::OK();
  }

  auto session = std::make_unique<AnnotationSession>(
      pipeline_, object_id, config_.session,
      object_id * config_.ids_per_object);
  SEMITRI_RETURN_IF_ERROR(session->RestoreState(in));
  size_t buffered = session->buffered_points();
  const int64_t now = clock_->NowNanos();
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.sessions.find(object_id) != shard.sessions.end()) {
      return common::Status::AlreadyExists(
          "a live session already exists for this object");
    }
    Entry& entry = shard.sessions[object_id];
    entry.session = std::move(session);
    entry.last_feed_nanos = now;
    entry.charged_fixes = buffered;
    ++shard.opened;
    // The adopted state is authoritative; a stale cursor from a prior
    // ownership stint here must not shadow it.
    shard.resume_ids.erase(object_id);
  }
  live_sessions_.fetch_add(1, std::memory_order_relaxed);
  buffered_fixes_.fetch_add(static_cast<int64_t>(buffered),
                            std::memory_order_relaxed);
  activity_.Touch(object_id, now);
  return common::Status::OK();
}

SessionManager::Stats SessionManager::stats() const {
  Stats out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.active_sessions += shard->sessions.size();
    out.sessions_opened += shard->opened;
    out.sessions_evicted += shard->evicted;
    out.evictions_with_data_loss += shard->evicted_with_data_loss;
    Accumulate(shard->retired, &out);
    for (const auto& [id, entry] : shard->sessions) {
      Accumulate(entry.session->stats(), &out);
    }
  }
  int64_t fixes = buffered_fixes_.load(std::memory_order_relaxed);
  out.buffered_fixes = fixes > 0 ? static_cast<size_t>(fixes) : 0;
  out.sessions_shed = sessions_shed_.load(std::memory_order_relaxed);
  out.admission_rejected_sessions =
      admission_rejected_sessions_.load(std::memory_order_relaxed);
  out.overload_rejected_fixes =
      overload_rejected_fixes_.load(std::memory_order_relaxed);
  out.sessions_restored = sessions_restored_.load(std::memory_order_relaxed);
  out.resume_cursors_restored =
      resume_cursors_restored_.load(std::memory_order_relaxed);
  return out;
}

core::HealthSnapshot SessionManager::Health() const {
  core::HealthSnapshot snapshot = pipeline_->Health();
  const AdmissionConfig& adm = config_.admission;
  size_t sessions = live_sessions_.load(std::memory_order_relaxed);
  int64_t fixes = buffered_fixes_.load(std::memory_order_relaxed);
  size_t fixes_u = fixes > 0 ? static_cast<size_t>(fixes) : 0;
  snapshot.sessions = {sessions, adm.max_sessions};
  snapshot.buffered_fixes = {fixes_u, adm.max_buffered_fixes};
  snapshot.buffered_bytes = {ApproxBytes(fixes_u, sessions),
                             adm.max_buffered_bytes};
  snapshot.sessions_shed = sessions_shed_.load(std::memory_order_relaxed);
  snapshot.admission_rejected_sessions =
      admission_rejected_sessions_.load(std::memory_order_relaxed);
  snapshot.overload_rejected_fixes =
      overload_rejected_fixes_.load(std::memory_order_relaxed);
  size_t data_loss = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    data_loss += shard->evicted_with_data_loss;
  }
  snapshot.evictions_with_data_loss = data_loss;
  return snapshot;
}

}  // namespace semitri::stream
