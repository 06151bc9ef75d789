#ifndef SEMITRI_SHARD_CHAOS_H_
#define SEMITRI_SHARD_CHAOS_H_

// Seeded fault schedule for the shard soak: a deterministic list of
// (step, event) pairs — shard kills healed by detection + auto
// failover, live migrations, seal-and-ship waves, and injected
// WAL-ship failures — that the soak replays while streaming fixes.
// The schedule is pure data: generation draws from one common::Rng, so
// the same seed always produces the same storm, and the soak's
// convergence proof (MergeStores vs the uninterrupted run,
// ContentEquals) stays reproducible bit-for-bit.
//
// Kills are spaced at least min_kill_spacing steps apart and never
// scheduled in the first or last tenth of the run: each incident needs
// room for detect -> promote -> re-feed to complete before the next
// one (and before the final convergence check), which is also what
// keeps "zero lost acknowledged fixes beyond replication lag"
// assertable — overlapping unhealed incidents would make loss
// attribution ambiguous.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "shard/ring.h"

namespace semitri::shard {

enum class ChaosKind {
  // SIGKILL the victim shard; the cluster's detector + auto failover
  // heal it. The driver checkpoints (acks) just before, and re-feeds
  // the victim's objects from that ack once promotion completes.
  kKill,
  // Live-migrate one object to the following shard on the ring.
  kMigrate,
  // Seal + ship every shard's WAL (drains replication lag).
  kSealShip,
  // Arm a one-shot `wal_ship` failure: the next ship attempt fails,
  // leaving lag for a later retry.
  kShipFault,
};

const char* ChaosKindName(ChaosKind kind);

struct ChaosEvent {
  ChaosKind kind = ChaosKind::kKill;
  size_t at_step = 0;
  // Victim shard (kKill) — kMigrate routes by object instead.
  ShardId shard = 0;
  // Index into the driver's object list (kMigrate).
  size_t object_index = 0;
};

struct ChaosScheduleConfig {
  uint64_t seed = 1234;
  // Driver steps (feed rounds) in the soak.
  size_t num_steps = 0;
  size_t num_shards = 1;
  size_t num_objects = 1;
  // Event counts; kills are capped by what spacing allows.
  size_t kills = 2;
  size_t migrations = 2;
  size_t seal_ships = 1;
  size_t ship_faults = 0;
  // Minimum steps between consecutive kills (detection + re-feed room).
  size_t min_kill_spacing = 8;
};

class ChaosSchedule {
 public:
  static ChaosSchedule Generate(const ChaosScheduleConfig& config);

  // All events, sorted by step (stable on ties).
  const std::vector<ChaosEvent>& events() const { return events_; }
  // Events scheduled for exactly `step`.
  std::vector<ChaosEvent> EventsAt(size_t step) const;
  size_t CountOf(ChaosKind kind) const;

  // One line per event — logged by the soak so a failing seed's storm
  // is reconstructible from the output alone.
  std::string ToString() const;

 private:
  std::vector<ChaosEvent> events_;
};

}  // namespace semitri::shard

#endif  // SEMITRI_SHARD_CHAOS_H_
