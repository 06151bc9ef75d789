#include "core/health.h"

#include <cstdio>

namespace semitri::core {

namespace {

void AppendGauge(std::string* out, const char* name,
                 const BudgetGauge& gauge) {
  char line[160];
  if (gauge.limit == 0) {
    std::snprintf(line, sizeof(line), "  %-16s %zu (unbounded)\n", name,
                  gauge.used);
  } else {
    std::snprintf(line, sizeof(line), "  %-16s %zu / %zu (%.0f%%)\n", name,
                  gauge.used, gauge.limit, 100.0 * gauge.utilization());
  }
  *out += line;
}

}  // namespace

bool HealthSnapshot::degraded() const {
  for (const BudgetGauge* g : {&sessions, &buffered_fixes}) {
    if (g->limit != 0 && g->utilization() >= 0.9) return true;
  }
  for (const ShardHealth& s : shards) {
    if (!s.alive || s.suspect || s.degraded || s.storage_degraded) {
      return true;
    }
  }
  if (storage_degraded || scrub_quarantined > 0) return true;
  return false;
}

std::string HealthSnapshot::ToString() const {
  std::string out = degraded() ? "health: DEGRADED\n" : "health: ok\n";
  out += "stages:\n";
  for (const StageHealth& s : stages) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-22s p50=%.3fms p99=%.3fms n=%zu\n",
                  s.stage.c_str(), s.latency.p50 * 1e3, s.latency.p99 * 1e3,
                  s.latency.count);
    out += line;
  }
  if (!shards.empty()) {
    out += "shards:\n";
    for (const ShardHealth& s : shards) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  shard %-4zu %-5s sessions=%zu buffered_fixes=%zu "
                    "ship_lag=%zu seg (%zu B) epoch=%zu%s%s\n",
                    s.shard_id, s.alive ? "up" : "DOWN", s.live_sessions,
                    s.buffered_fixes, s.wal_ship_lag_segments,
                    s.wal_ship_lag_bytes, s.failover_epoch,
                    s.suspect ? " SUSPECT" : "",
                    s.degraded ? " DEGRADED" : "");
      out += line;
      if (s.storage_degraded) {
        out += "    storage: READ-ONLY (" + s.storage_fault + ")\n";
      }
      if (s.scrub_files_scanned > 0 || s.scrub_corrupt_detected > 0) {
        char scrub[192];
        std::snprintf(scrub, sizeof(scrub),
                      "    scrub: scanned=%zu corrupt=%zu repaired=%zu "
                      "quarantined=%zu cycles=%zu\n",
                      s.scrub_files_scanned, s.scrub_corrupt_detected,
                      s.scrub_repaired, s.scrub_quarantined,
                      s.scrub_cycles_completed);
        out += scrub;
      }
    }
    char heal[192];
    std::snprintf(heal, sizeof(heal),
                  "failover: completed=%zu aborted=%zu feeds_retried=%zu "
                  "feeds_recovered=%zu\n",
                  failovers_completed, failovers_aborted, feeds_retried,
                  feeds_recovered);
    out += heal;
  }
  out += "budgets:\n";
  AppendGauge(&out, "sessions", sessions);
  AppendGauge(&out, "buffered_fixes", buffered_fixes);
  char line[256];
  std::snprintf(line, sizeof(line),
                "overload: shed=%zu rejected_sessions=%zu rejected_fixes=%zu "
                "data_loss_evictions=%zu\n",
                sessions_shed, admission_rejected_sessions,
                overload_rejected_fixes, evictions_with_data_loss);
  out += line;
  if (storage_degraded) {
    out += "storage: READ-ONLY DEGRADED (" + storage_fault + ")\n";
  }
  if (scrub_files_scanned > 0 || scrub_corrupt_detected > 0) {
    char scrub[192];
    std::snprintf(scrub, sizeof(scrub),
                  "scrub: scanned=%zu corrupt=%zu repaired=%zu "
                  "quarantined=%zu cycles=%zu\n",
                  scrub_files_scanned, scrub_corrupt_detected, scrub_repaired,
                  scrub_quarantined, scrub_cycles_completed);
    out += scrub;
  }
  return out;
}

}  // namespace semitri::core
