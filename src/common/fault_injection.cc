#include "common/fault_injection.h"

namespace semitri::common {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(std::string_view site, FaultPolicy policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  Site& s = sites_[std::string(site)];
  s.armed = true;
  s.policy = policy;
  s.armed_hits = 0;
  s.triggered = false;
  engaged_.store(true);
}

void FaultInjector::Disarm(std::string_view site) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return;
  it->second.armed = false;
  it->second.triggered = false;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, site] : sites_) {
    site = Site();
  }
  engaged_.store(true);
}

FaultAction FaultInjector::Fire(std::string_view site) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.emplace(std::string(site), Site()).first;
  }
  Site& s = it->second;
  ++s.hits;
  if (!s.armed) return FaultAction::kNone;
  ++s.armed_hits;

  const FaultPolicy& policy = s.policy;
  const bool trigger =
      policy.repeat ? s.armed_hits >= policy.trigger_on_hit
                    : !s.triggered && s.armed_hits == policy.trigger_on_hit;
  if (!trigger) return FaultAction::kNone;
  s.triggered = true;
  return policy.action;
}

uint64_t FaultInjector::HitCount(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

std::vector<std::string> FaultInjector::Sites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(sites_.size());
  for (const auto& [name, site] : sites_) out.push_back(name);
  return out;
}

}  // namespace semitri::common
