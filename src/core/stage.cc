#include "core/stage.h"

#include <algorithm>
#include <optional>

#include "analytics/latency_profiler.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/fault_injection.h"
#include "core/watchdog.h"

namespace semitri::core {

namespace {

// Times a stage only when a profiler is attached.
class StageTimer {
 public:
  StageTimer(analytics::LatencyProfiler* profiler, const char* stage) {
    if (profiler != nullptr) {
      scope_.emplace(profiler, stage);
    }
  }

 private:
  std::optional<analytics::LatencyProfiler::Scope> scope_;
};

}  // namespace

common::Status StageGraph::Add(std::unique_ptr<AnnotationStage> stage) {
  if (finalized_) {
    return common::Status::InvalidArgument(
        "cannot add stage '" + stage->name() + "' to a finalized graph");
  }
  if (Find(stage->name()) != nullptr) {
    return common::Status::InvalidArgument("duplicate stage name '" +
                                           stage->name() + "'");
  }
  stages_.push_back(std::move(stage));
  return common::Status::OK();
}

common::Status StageGraph::Finalize() {
  if (finalized_) return common::Status::OK();
  // Stable Kahn topological sort: among stages whose dependencies are
  // satisfied, registration order wins — so the default pipeline graph
  // executes (and stores) in exactly the documented layer order.
  order_.clear();
  order_.reserve(stages_.size());
  std::vector<bool> done(stages_.size(), false);
  for (const std::unique_ptr<AnnotationStage>& stage : stages_) {
    for (const std::string& dep : stage->dependencies()) {
      if (Find(dep) == nullptr) {
        return common::Status::InvalidArgument(
            "stage '" + stage->name() + "' depends on unknown stage '" +
            dep + "'");
      }
    }
  }
  while (order_.size() < stages_.size()) {
    bool progressed = false;
    for (size_t i = 0; i < stages_.size(); ++i) {
      if (done[i]) continue;
      bool ready = true;
      for (const std::string& dep : stages_[i]->dependencies()) {
        bool dep_done = false;
        for (size_t j = 0; j < stages_.size(); ++j) {
          if (done[j] && stages_[j]->name() == dep) {
            dep_done = true;
            break;
          }
        }
        if (!dep_done) {
          ready = false;
          break;
        }
      }
      if (ready) {
        done[i] = true;
        order_.push_back(stages_[i].get());
        progressed = true;
      }
    }
    if (!progressed) {
      std::string cycle;
      for (size_t i = 0; i < stages_.size(); ++i) {
        if (done[i]) continue;
        if (!cycle.empty()) cycle += ", ";
        cycle += stages_[i]->name();
      }
      return common::Status::InvalidArgument(
          "stage dependency cycle among: " + cycle);
    }
  }
  finalized_ = true;
  return common::Status::OK();
}

const AnnotationStage* StageGraph::Find(std::string_view name) const {
  for (const std::unique_ptr<AnnotationStage>& stage : stages_) {
    if (stage->name() == name) return stage.get();
  }
  return nullptr;
}

common::Status StageGraph::SetFailurePolicy(std::string_view name,
                                            FailurePolicy policy) {
  for (const std::unique_ptr<AnnotationStage>& stage : stages_) {
    if (stage->name() == name) {
      stage->set_failure_policy(policy);
      return common::Status::OK();
    }
  }
  return common::Status::InvalidArgument("unknown stage '" +
                                         std::string(name) + "'");
}

common::Status StageGraph::SetCircuitBreaker(std::string_view name,
                                             CircuitBreakerConfig config,
                                             const common::Clock* clock) {
  for (const std::unique_ptr<AnnotationStage>& stage : stages_) {
    if (stage->name() == name) {
      stage->set_circuit_breaker(
          std::make_unique<CircuitBreaker>(config, clock));
      return common::Status::OK();
    }
  }
  return common::Status::InvalidArgument("unknown stage '" +
                                         std::string(name) + "'");
}

std::vector<std::string> StageGraph::ExecutionOrder() const {
  std::vector<std::string> out;
  out.reserve(order_.size());
  for (const AnnotationStage* stage : order_) out.push_back(stage->name());
  return out;
}

common::Status StageGraph::RunOne(const AnnotationStage& stage,
                                  AnnotationContext& context) const {
  const FailurePolicy& policy = stage.failure_policy();
  const common::Clock* clock =
      context.clock != nullptr ? context.clock : common::Clock::Real();

  // Between-stage gate: an expired run deadline (or a fired token)
  // aborts the run outright — unlike a stage-local timeout below, there
  // is no budget left for later stages, so FailurePolicy does not apply.
  if (context.exec != nullptr) {
    SEMITRI_RETURN_IF_ERROR(context.exec->Check(stage.name().c_str()));
  }

  // Open circuit breaker: short-circuit without running the stage and
  // let its FailurePolicy decide whether the run degrades (skip) or
  // fails, exactly as for a real error.
  CircuitBreaker* breaker = stage.circuit_breaker();
  if (breaker != nullptr && !breaker->Allow()) {
    common::Status status = common::Status::Unavailable(
        "circuit breaker open for stage '" + stage.name() + "'");
    bool skip = policy.on_failure == FailurePolicy::OnFailure::kSkip;
    context.result.stage_reports[stage.name()] =
        StageReport{status, /*attempts=*/0, skip};
    return skip ? common::Status::OK() : status;
  }

  // Tighten the stage's view of the deadline by its per-stage budget;
  // the run below goes against `stage_exec` while the between-stage
  // gate above keeps using the caller's run-level control.
  const common::ExecControl* run_exec = context.exec;
  common::ExecControl stage_exec;
  bool stage_bounded = false;
  if (run_exec != nullptr && run_exec->stage_timeout_seconds > 0.0) {
    stage_exec = *run_exec;
    stage_exec.deadline = common::Deadline::Earlier(
        run_exec->deadline,
        common::Deadline::After(run_exec->stage_timeout_seconds,
                                run_exec->effective_clock()));
    context.exec = &stage_exec;
    stage_bounded = true;
  }
  // Backstop: if this stage wedges past a hard multiple of its budget,
  // the watchdog fires the token and the next checkpoint aborts.
  std::optional<Watchdog::Guard> watch;
  if (context.watchdog != nullptr && stage_bounded) {
    watch.emplace(context.watchdog, stage.name(),
                  run_exec->stage_timeout_seconds, stage_exec.token);
  }

  // Every stage execution is a fault site named "stage:<name>", so the
  // crash-recovery harness can fail any step of the graph without
  // bespoke hooks in each annotator; "stage_slow:<name>" simulates a
  // wedged stage by sleeping past the remaining deadline (instant under
  // a FakeClock), exercising the timeout paths deterministically.
  common::FaultAction slow = SEMITRI_FAULT_FIRE("stage_slow:" + stage.name());
  if (slow != common::FaultAction::kNone) {
    double nap = 0.001;
    if (context.exec != nullptr && !context.exec->deadline.infinite()) {
      nap = std::max(nap, context.exec->deadline.remaining_seconds() + 0.001);
    }
    clock->SleepFor(nap);
  }
  common::FaultAction action = SEMITRI_FAULT_FIRE("stage:" + stage.name());
  common::Status status;
  // A kCrash at the slow site is a process that dies while wedged: it
  // must surface as a hard failure, never as a completed stage.
  if (slow == common::FaultAction::kCrash ||
      action != common::FaultAction::kNone) {
    status = common::Status::IoError("injected failure in stage '" +
                                     stage.name() + "'");
  } else if (context.exec != nullptr &&
             !(status = context.exec->Check(stage.name().c_str())).ok()) {
    // Budget already gone (e.g. the slow site above): don't enter the
    // stage at all.
  } else {
    int64_t start_nanos = breaker != nullptr ? clock->NowNanos() : 0;
    {
      StageTimer timer(stage.profiled() ? context.profiler : nullptr,
                       stage.name().c_str());
      status = stage.Run(context);
    }
    if (breaker != nullptr) {
      double latency =
          static_cast<double>(clock->NowNanos() - start_nanos) * 1e-9;
      if (status.ok()) {
        breaker->RecordSuccess(latency);
      } else {
        breaker->RecordFailure();
      }
    }
  }
  context.exec = run_exec;

  // Only failures leave a report, so a clean run allocates nothing.
  if (status.ok()) return status;
  // A stage that exhausted only its own budget degrades per policy; an
  // exhausted run deadline surfaces at the next between-stage gate.
  bool skip = policy.on_failure == FailurePolicy::OnFailure::kSkip;
  context.result.stage_reports[stage.name()] =
      StageReport{status, /*attempts=*/1, skip};
  // Degrade: drop this stage's contribution and let the rest of the
  // graph complete.
  if (skip) return common::Status::OK();
  return status;
}

common::Status StageGraph::Run(AnnotationContext& context) const {
  SEMITRI_CHECK(finalized_) << "StageGraph::Run before Finalize";
  for (const AnnotationStage* stage : order_) {
    SEMITRI_RETURN_IF_ERROR(RunOne(*stage, context));
  }
  return common::Status::OK();
}

common::Status StageGraph::RunStage(std::string_view name,
                                    AnnotationContext& context) const {
  const AnnotationStage* stage = Find(name);
  if (stage == nullptr) {
    return common::Status::InvalidArgument("unknown stage '" +
                                           std::string(name) + "'");
  }
  return RunOne(*stage, context);
}

}  // namespace semitri::core
