#ifndef SEMITRI_CORE_STAGE_H_
#define SEMITRI_CORE_STAGE_H_

// Composable annotation stages and the graph that runs them.
//
// The paper's architecture (Fig. 2) is layered: the Trajectory
// Computation Layer feeds three independent annotation layers, which
// write into the Semantic Trajectory Store. A stage is one node of that
// graph — named (the profiled stages carry the Fig. 17 stage names),
// declaring its dependencies, and reading/writing the shared
// AnnotationContext. StageGraph validates the dependencies, orders the
// stages (stable topological sort: registration order is preserved
// among ready stages), and runs them with per-stage latency accounting.
//
// Stages hold only const pointers to pipeline-owned components, so a
// finalized graph is immutable and safe to run from many threads at
// once with separate contexts.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/annotation_context.h"

namespace semitri::core {

// What the graph does when a stage's Run returns an error. The two
// shapes: fail-fast (default — the error aborts the run) and skip-and-
// record (the stage is dropped, a StageReport lands on the result, and
// the rest of the graph continues — graceful degradation, e.g. a
// broken POI repository still yields region+line layers). A stage runs
// once per graph run; the graph does not retry it.
struct FailurePolicy {
  enum class OnFailure {
    kAbort,  // propagate the error; the run stops
    kSkip,   // record a StageReport and continue with later stages
  };

  OnFailure on_failure = OnFailure::kAbort;

  static FailurePolicy FailFast() { return {}; }
  static FailurePolicy SkipAndRecord() {
    FailurePolicy p;
    p.on_failure = OnFailure::kSkip;
    return p;
  }
};

class AnnotationStage {
 public:
  // `name` must be unique within a graph; profiled stages use the
  // Fig. 17 stage names so latency reports match the paper.
  // `dependencies` names stages that must run earlier; every named
  // stage must be registered in the same graph.
  AnnotationStage(std::string name, std::vector<std::string> dependencies,
                  bool profiled = true)
      : name_(std::move(name)),
        dependencies_(std::move(dependencies)),
        profiled_(profiled) {}

  virtual ~AnnotationStage() = default;

  const std::string& name() const { return name_; }
  const std::vector<std::string>& dependencies() const {
    return dependencies_;
  }
  // Whether the latency profiler records this stage.
  bool profiled() const { return profiled_; }

  const FailurePolicy& failure_policy() const { return failure_policy_; }
  void set_failure_policy(FailurePolicy policy) {
    failure_policy_ = policy;
  }

  [[nodiscard]] virtual common::Status Run(AnnotationContext& context) const = 0;

 private:
  std::string name_;
  std::vector<std::string> dependencies_;
  bool profiled_;
  FailurePolicy failure_policy_;
};

// A stage backed by a callable — extension point for custom annotation
// steps without a class per stage.
class FunctionStage final : public AnnotationStage {
 public:
  using Fn = std::function<common::Status(AnnotationContext&)>;

  FunctionStage(std::string name, std::vector<std::string> dependencies,
                Fn fn, bool profiled = true)
      : AnnotationStage(std::move(name), std::move(dependencies), profiled),
        fn_(std::move(fn)) {}

  [[nodiscard]] common::Status Run(AnnotationContext& context) const override {
    return fn_(context);
  }

 private:
  Fn fn_;
};

class StageGraph {
 public:
  StageGraph() = default;
  StageGraph(StageGraph&&) = default;
  StageGraph& operator=(StageGraph&&) = default;

  // Registers a stage. Error on duplicate name or on a finalized graph.
  [[nodiscard]] common::Status Add(std::unique_ptr<AnnotationStage> stage);

  // Validates dependencies and fixes the execution order. Error on an
  // unknown dependency or a cycle. Idempotent once successful.
  [[nodiscard]] common::Status Finalize();

  bool finalized() const { return finalized_; }
  size_t size() const { return stages_.size(); }

  const AnnotationStage* Find(std::string_view name) const;

  // Replaces the failure policy of a registered stage (allowed before
  // or after Finalize — the policy does not affect ordering). Error if
  // the name is unknown.
  [[nodiscard]] common::Status SetFailurePolicy(std::string_view name,
                                  FailurePolicy policy);

  // Stage names in execution order (finalized graphs only).
  std::vector<std::string> ExecutionOrder() const;

  // Runs every stage in execution order. A failing stage is skipped or
  // fails the run per its FailurePolicy (default: fail fast — the first
  // error stops the run); skipped and failed stages leave a StageReport
  // on the context's result. Profiled stages are
  // timed under their name when the context carries a profiler. The
  // graph must be finalized.
  [[nodiscard]] common::Status Run(AnnotationContext& context) const;

  // Runs one stage by name (with the same profiling behaviour as Run),
  // ignoring dependencies — the caller asserts the context already
  // carries the artifacts the stage needs. Error if the name is
  // unknown. Used for single-layer re-annotation over cached episodes.
  [[nodiscard]] common::Status RunStage(std::string_view name,
                          AnnotationContext& context) const;

 private:
  [[nodiscard]] common::Status RunOne(const AnnotationStage& stage,
                        AnnotationContext& context) const;

  std::vector<std::unique_ptr<AnnotationStage>> stages_;
  std::vector<const AnnotationStage*> order_;
  bool finalized_ = false;
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_STAGE_H_
