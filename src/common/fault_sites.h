#ifndef SEMITRI_COMMON_FAULT_SITES_H_
#define SEMITRI_COMMON_FAULT_SITES_H_

// The checked-in registry of SEMITRI_FAULT_FIRE site names.
//
// Fault sites self-register at runtime (common/fault_injection.h), so
// nothing used to stop a new site from landing without kill-at-site
// recovery coverage. This header closes that loop from both ends:
//
//  - tools/semitri_lint's fault-site-registry check statically
//    extracts every SEMITRI_FAULT_FIRE call in src/ and fails when a
//    site is missing here (or an entry here has gone stale);
//  - tests/recovery_test.cc asserts every *runtime-discovered* site
//    matches an entry here, so registration implies the crash/recover
//    sweep actually exercises it.
//
// `prefix` entries cover families of dynamically-composed names
// ("stage:" + stage name); exact entries must be unique across src/.
//
// Keep the list sorted by name.

#include <cstddef>

namespace semitri::common {

struct FaultSiteInfo {
  const char* name;
  // When true, `name` is a prefix: any runtime site starting with it
  // belongs to this entry (e.g. "stage:" covers "stage:map_match").
  bool prefix;
};

inline constexpr FaultSiteInfo kFaultSites[] = {
    {"admission_reject", false},  // session_manager: refused admissions
    {"detector_probe", false},       // shard: liveness probe observation
    {"env:", true},               // FaultFs: per-op disk faults (env:append…)
    {"failover_promote", false},     // shard: standby promotion
    {"migration_handoff", false},    // shard: packed-session transfer
    {"migration_pack", false},       // shard: source-side session pack
    {"migration_unpack", false},     // shard: destination-side adopt
    {"stage:", true},             // stage graph: per-stage failure
    {"wal_append", false},           // wal: frame write
    {"wal_checkpoint", false},       // wal: checkpoint + truncate
    {"wal_ship", false},             // shard: sealed-segment copy to standby
    {"wal_sync", false},             // wal: fsync
    {"world_load", false},           // io: world snapshot read
    {"world_save", false},           // io: world snapshot write
};

inline constexpr size_t kFaultSiteCount =
    sizeof(kFaultSites) / sizeof(kFaultSites[0]);

// True when `site` matches `info` (exact, or prefix for families).
inline bool FaultSiteMatches(const FaultSiteInfo& info, const char* site) {
  const char* a = info.name;
  const char* b = site;
  while (*a != '\0' && *a == *b) {
    ++a;
    ++b;
  }
  return *a == '\0' && (info.prefix || *b == '\0');
}

}  // namespace semitri::common

#endif  // SEMITRI_COMMON_FAULT_SITES_H_
