// Unit tests for the annotation stage graph: registration rules,
// dependency validation, stable topological ordering, execution, and
// single-stage runs.

#include "core/stage.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analytics/latency_profiler.h"
#include "core/stages.h"

namespace semitri::core {
namespace {

std::unique_ptr<FunctionStage> Recorder(std::string name,
                                        std::vector<std::string> deps,
                                        std::vector<std::string>* trace,
                                        bool profiled = true) {
  std::string stage_name = name;
  return std::make_unique<FunctionStage>(
      std::move(name), std::move(deps),
      [trace, stage_name](AnnotationContext&) {
        trace->push_back(stage_name);
        return common::Status::OK();
      },
      profiled);
}

TEST(StageGraphTest, RunsInStableTopologicalOrder) {
  std::vector<std::string> trace;
  StageGraph graph;
  // Registered: sink depends on both branches; branches depend on root.
  // Stable sort keeps registration order among ready stages, so the
  // expected order is exactly root, a, b, sink.
  ASSERT_TRUE(graph.Add(Recorder("root", {}, &trace)).ok());
  ASSERT_TRUE(graph.Add(Recorder("a", {"root"}, &trace)).ok());
  ASSERT_TRUE(graph.Add(Recorder("b", {"root"}, &trace)).ok());
  ASSERT_TRUE(graph.Add(Recorder("sink", {"a", "b"}, &trace)).ok());
  ASSERT_TRUE(graph.Finalize().ok());
  EXPECT_TRUE(graph.finalized());
  EXPECT_EQ(graph.ExecutionOrder(),
            (std::vector<std::string>{"root", "a", "b", "sink"}));

  AnnotationContext context;
  ASSERT_TRUE(graph.Run(context).ok());
  EXPECT_EQ(trace, (std::vector<std::string>{"root", "a", "b", "sink"}));
}

TEST(StageGraphTest, OrderIndependentOfRegistrationWhenDepsForce) {
  std::vector<std::string> trace;
  StageGraph graph;
  // `late` registered first but depends on `early`.
  ASSERT_TRUE(graph.Add(Recorder("late", {"early"}, &trace)).ok());
  ASSERT_TRUE(graph.Add(Recorder("early", {}, &trace)).ok());
  ASSERT_TRUE(graph.Finalize().ok());
  EXPECT_EQ(graph.ExecutionOrder(),
            (std::vector<std::string>{"early", "late"}));
}

TEST(StageGraphTest, DuplicateNameRejected) {
  std::vector<std::string> trace;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Recorder("stage", {}, &trace)).ok());
  common::Status status = graph.Add(Recorder("stage", {}, &trace));
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST(StageGraphTest, AddAfterFinalizeRejected) {
  std::vector<std::string> trace;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Recorder("stage", {}, &trace)).ok());
  ASSERT_TRUE(graph.Finalize().ok());
  common::Status status = graph.Add(Recorder("another", {}, &trace));
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST(StageGraphTest, UnknownDependencyRejected) {
  std::vector<std::string> trace;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Recorder("stage", {"missing"}, &trace)).ok());
  common::Status status = graph.Finalize();
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("missing"), std::string::npos);
}

TEST(StageGraphTest, CycleRejectedAndNamed) {
  std::vector<std::string> trace;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Recorder("a", {"b"}, &trace)).ok());
  ASSERT_TRUE(graph.Add(Recorder("b", {"a"}, &trace)).ok());
  common::Status status = graph.Finalize();
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("a"), std::string::npos);
  EXPECT_NE(status.message().find("b"), std::string::npos);
}

TEST(StageGraphTest, RunStopsAtFirstError) {
  std::vector<std::string> trace;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Recorder("ok", {}, &trace)).ok());
  ASSERT_TRUE(graph
                  .Add(std::make_unique<FunctionStage>(
                      "boom", std::vector<std::string>{"ok"},
                      [](AnnotationContext&) {
                        return common::Status::Internal("boom");
                      }))
                  .ok());
  ASSERT_TRUE(graph.Add(Recorder("never", {"boom"}, &trace)).ok());
  ASSERT_TRUE(graph.Finalize().ok());
  AnnotationContext context;
  common::Status status = graph.Run(context);
  EXPECT_EQ(status.code(), common::StatusCode::kInternal);
  EXPECT_EQ(trace, (std::vector<std::string>{"ok"}));
}

TEST(StageGraphTest, RunStageIgnoresDependenciesAndProfiles) {
  std::vector<std::string> trace;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Recorder("root", {}, &trace)).ok());
  ASSERT_TRUE(graph.Add(Recorder("leaf", {"root"}, &trace)).ok());
  ASSERT_TRUE(
      graph.Add(Recorder("silent", {}, &trace, /*profiled=*/false)).ok());
  ASSERT_TRUE(graph.Finalize().ok());

  analytics::LatencyProfiler profiler;
  AnnotationContext context;
  context.profiler = &profiler;
  ASSERT_TRUE(graph.RunStage("leaf", context).ok());
  ASSERT_TRUE(graph.RunStage("silent", context).ok());
  EXPECT_EQ(trace, (std::vector<std::string>{"leaf", "silent"}));
  EXPECT_EQ(profiler.Count("leaf"), 1u);
  // Unprofiled stages leave no latency samples.
  EXPECT_EQ(profiler.Count("silent"), 0u);

  common::Status status = graph.RunStage("nonexistent", context);
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST(StageGraphTest, FindLocatesRegisteredStages) {
  std::vector<std::string> trace;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Recorder("present", {}, &trace)).ok());
  EXPECT_NE(graph.Find("present"), nullptr);
  EXPECT_EQ(graph.Find("absent"), nullptr);
  EXPECT_EQ(graph.size(), 1u);
}

// A stage that fails its first `failures` runs, then succeeds.
std::unique_ptr<FunctionStage> Flaky(std::string name, size_t failures,
                                     size_t* runs) {
  return std::make_unique<FunctionStage>(
      std::move(name), std::vector<std::string>{},
      [failures, runs](AnnotationContext&) {
        if ((*runs)++ < failures) {
          return common::Status::IoError("transient failure");
        }
        return common::Status::OK();
      });
}

TEST(StageGraphTest, FailFastAbortsRunAndReports) {
  std::vector<std::string> trace;
  size_t runs = 0;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Flaky("broken", /*failures=*/100, &runs)).ok());
  ASSERT_TRUE(graph.Add(Recorder("after", {"broken"}, &trace)).ok());
  ASSERT_TRUE(graph.Finalize().ok());
  AnnotationContext context;
  common::Status status = graph.Run(context);
  EXPECT_EQ(status.code(), common::StatusCode::kIoError);
  EXPECT_TRUE(trace.empty());  // downstream stage never ran
  auto it = context.result.stage_reports.find("broken");
  ASSERT_TRUE(it != context.result.stage_reports.end());
  EXPECT_FALSE(it->second.status.ok());
  EXPECT_FALSE(it->second.skipped);
}

TEST(StageGraphTest, SkipPolicyContinuesAndRecords) {
  std::vector<std::string> trace;
  size_t runs = 0;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Flaky("broken", /*failures=*/100, &runs)).ok());
  ASSERT_TRUE(graph.Add(Recorder("after", {"broken"}, &trace)).ok());
  ASSERT_TRUE(
      graph.SetFailurePolicy("broken", FailurePolicy::SkipAndRecord()).ok());
  ASSERT_TRUE(graph.Finalize().ok());
  AnnotationContext context;
  EXPECT_TRUE(graph.Run(context).ok());
  EXPECT_EQ(trace, (std::vector<std::string>{"after"}));
  auto it = context.result.stage_reports.find("broken");
  ASSERT_TRUE(it != context.result.stage_reports.end());
  EXPECT_TRUE(it->second.skipped);
  EXPECT_FALSE(it->second.status.ok());
  EXPECT_TRUE(context.result.degraded());
}

TEST(StageGraphTest, CleanRunLeavesNoReports) {
  std::vector<std::string> trace;
  StageGraph graph;
  ASSERT_TRUE(graph.Add(Recorder("ok", {}, &trace)).ok());
  ASSERT_TRUE(
      graph.SetFailurePolicy("ok", FailurePolicy::SkipAndRecord()).ok());
  ASSERT_TRUE(graph.Finalize().ok());
  AnnotationContext context;
  EXPECT_TRUE(graph.Run(context).ok());
  // Success is the hot path: no allocation, no report.
  EXPECT_TRUE(context.result.stage_reports.empty());
}

TEST(StageGraphTest, SetFailurePolicyRejectsUnknownStage) {
  StageGraph graph;
  EXPECT_EQ(graph.SetFailurePolicy("ghost", FailurePolicy::FailFast()).code(),
            common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace semitri::core
