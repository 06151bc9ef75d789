#include "core/stage.h"

#include <optional>

#include "analytics/latency_profiler.h"
#include "common/check.h"
#include "common/fault_injection.h"

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

std::vector<std::string> StageGraph::ExecutionOrder() const {
  std::vector<std::string> out;
  out.reserve(order_.size());
  for (const AnnotationStage* stage : order_) out.push_back(stage->name());
  return out;
}

common::Status StageGraph::RunOne(const AnnotationStage& stage,
                                  AnnotationContext& context) const {
  // Every stage execution is a fault site named "stage:<name>", so the
  // crash-recovery harness can fail any step of the graph without
  // bespoke hooks in each annotator.
  common::Status status;
  if (SEMITRI_FAULT_FIRE("stage:" + stage.name()) !=
      common::FaultAction::kNone) {
    status = common::Status::IoError("injected failure in stage '" +
                                     stage.name() + "'");
  } else {
    StageTimer timer(stage.profiled() ? context.profiler : nullptr,
                     stage.name().c_str());
    status = stage.Run(context);
  }

  // Only failures leave a report, so a clean run allocates nothing.
  if (status.ok()) return status;
  bool skip = stage.failure_policy().on_failure ==
              FailurePolicy::OnFailure::kSkip;
  context.result.stage_reports[stage.name()] = StageReport{status, skip};
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
