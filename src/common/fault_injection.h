#ifndef SEMITRI_COMMON_FAULT_INJECTION_H_
#define SEMITRI_COMMON_FAULT_INJECTION_H_

// Deterministic fault injection for the durability and degradation
// test harnesses.
//
// Production code marks fault *sites* — named points where an I/O or
// stage failure can be simulated — with SEMITRI_FAULT_FIRE("site"). The
// sites are compiled into every build. Tests Arm() a site with a policy
// (fail once, fail on the n-th hit, fail always) and the site reacts to
// the returned action.
//
// The engage contract: the macro consults the process-global
// FaultInjector only once the process is *engaged*, i.e. after its
// first Arm() or Reset(); nothing disengages it. Until then a site
// costs one atomic load — no lock, no map lookup, no allocation — and
// its argument is not even evaluated, so a computed name such as
// `"stage:" + name` is built only under a harness. A harness therefore
// calls Reset() in its SetUp (or Arm()s before the work it faults);
// from then on every site crossing is counted, which is what
// HitCount() and Sites() report. Fire() called directly bypasses the
// gate and always counts.
//
// Two actions are distinguished:
//   * kFail  — the site reports an injected error Status and the
//     process keeps running (degradation / retry testing);
//   * kCrash — the site simulates the process dying at that point:
//     durable sinks stop persisting (the WAL goes dead, possibly
//     leaving a torn partial record, exactly like a power cut mid
//     write) and the caller treats the returned error as the moment of
//     death. Recovery tests then re-open the on-disk state with
//     SemanticTrajectoryStore::Recover.
//
// Sites self-register on first Fire, so a harness can run once engaged
// but unarmed to discover every registered site and then iterate a
// crash over each (tests/recovery_test.cc).
//
// Thread-safe: all injector state is mutex-guarded; the engaged flag is
// atomic.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace semitri::common {

enum class FaultAction {
  kNone = 0,  // proceed normally
  kFail,      // return an injected error and keep running
  kCrash,     // simulate process death at this point
};

// When and how an armed site triggers. Hits are counted per site from
// the moment the site first fires (armed or not); the policy is
// evaluated against the per-site hit count observed *after* arming.
struct FaultPolicy {
  FaultAction action = FaultAction::kFail;
  // Trigger on the n-th post-arm hit (1-based).
  uint64_t trigger_on_hit = 1;
  // Keep triggering on every hit at or past trigger_on_hit instead of
  // exactly once.
  bool repeat = false;

  static FaultPolicy FailOnce() { return {FaultAction::kFail, 1, false}; }
  static FaultPolicy FailNth(uint64_t n) {
    return {FaultAction::kFail, n, false};
  }
  static FaultPolicy FailAlways() { return {FaultAction::kFail, 1, true}; }
  static FaultPolicy CrashNth(uint64_t n) {
    return {FaultAction::kCrash, n, false};
  }
};

class FaultInjector {
 public:
  // The process-global injector every SEMITRI_FAULT_FIRE site consults.
  static FaultInjector& Global();

  // Whether a harness has engaged this process (see the engage contract
  // above). SEMITRI_FAULT_FIRE checks this before anything else.
  static bool engaged() { return engaged_.load(); }

  // Arms `site` with `policy`; replaces any previous policy and restarts
  // the policy's post-arm hit count. Engages the process.
  void Arm(std::string_view site, FaultPolicy policy) SEMITRI_EXCLUDES(mutex_);

  // Removes the policy of one site (hit statistics survive).
  void Disarm(std::string_view site) SEMITRI_EXCLUDES(mutex_);

  // Disarms every site and clears all hit statistics. Registered site
  // names are kept so discovery runs stay valid. Engages the process.
  void Reset() SEMITRI_EXCLUDES(mutex_);

  // Registers `site` (on first call), counts the hit, and evaluates the
  // armed policy, if any. This is what an engaged SEMITRI_FAULT_FIRE
  // calls.
  FaultAction Fire(std::string_view site) SEMITRI_EXCLUDES(mutex_);

  // Total hits observed at `site` since the last Reset.
  uint64_t HitCount(std::string_view site) const SEMITRI_EXCLUDES(mutex_);

  // Every site name that ever fired (sorted), armed or not.
  std::vector<std::string> Sites() const SEMITRI_EXCLUDES(mutex_);

 private:
  struct Site {
    uint64_t hits = 0;        // total hits since Reset
    bool armed = false;
    FaultPolicy policy;
    uint64_t armed_hits = 0;  // hits since the policy was armed
    bool triggered = false;   // one-shot policies only trigger once
  };

  // Set by the first Arm() or Reset(), never cleared.
  static inline std::atomic<bool> engaged_{false};

  mutable std::mutex mutex_;
  std::map<std::string, Site, std::less<>> sites_ SEMITRI_GUARDED_BY(mutex_);
};

}  // namespace semitri::common

// Marks a fault site. Yields a common::FaultAction; sites handle kFail /
// kCrash and fall through on kNone. Until the process is engaged this
// is one atomic load, and `site` is not evaluated.
#define SEMITRI_FAULT_FIRE(site)                               \
  (::semitri::common::FaultInjector::engaged()                 \
       ? ::semitri::common::FaultInjector::Global().Fire(site) \
       : ::semitri::common::FaultAction::kNone)

#endif  // SEMITRI_COMMON_FAULT_INJECTION_H_
