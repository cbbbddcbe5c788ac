// Tests of proc::SubprocessTarget end to end against the real
// aid_subject_host binary: parity with in-process dispatch, crash respawn,
// deadline kills, replica pooling under exec::ParallelTarget, and the
// failure-path diagnostics (bad host path, catalog mismatch, crash loops).
//
// Skips gracefully on platforms without fork/exec.

#include "proc/subprocess_target.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel_target.h"
#include "proc/wire.h"
#include "synth/flaky_target.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

#define SKIP_WITHOUT_FORK()                                            \
  do {                                                                 \
    if (!SubprocessIsolationSupported()) {                             \
      GTEST_SKIP() << "no fork/exec on this platform";                 \
    }                                                                  \
  } while (false)

std::unique_ptr<GroundTruthModel> MakeModel(uint64_t seed = 7,
                                            int max_threads = 10) {
  SyntheticAppOptions options;
  options.max_threads = max_threads;
  options.seed = seed;
  auto model = GenerateSyntheticApp(options);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(*model);
}

SubjectSpec ModelSpec(const GroundTruthModel* model) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model;
  return spec;
}

void ExpectLogsEqual(const PredicateLog& a, const PredicateLog& b) {
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.outcome, b.outcome);
  ASSERT_EQ(a.observed.size(), b.observed.size());
  for (const auto& [id, obs] : a.observed) {
    ASSERT_TRUE(b.Has(id)) << "predicate " << id << " missing";
    EXPECT_EQ(b.observed.at(id).start, obs.start);
    EXPECT_EQ(b.observed.at(id).end, obs.end);
  }
}

TEST(SubprocessTargetTest, MatchesInProcessModelDispatch) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  auto target = SubprocessTarget::Create(ModelSpec(model.get()));
  ASSERT_TRUE(target.ok()) << target.status();

  ModelTarget reference(model.get());
  const std::vector<std::vector<PredicateId>> spans = {
      {}, {model->root_cause()}, {model->predicates().front()},
      {model->predicates().front(), model->root_cause()}};
  for (const auto& span : spans) {
    auto isolated = (*target)->RunIntervened(span, 2);
    auto in_process = reference.RunIntervened(span, 2);
    ASSERT_TRUE(isolated.ok()) << isolated.status();
    ASSERT_TRUE(in_process.ok());
    ASSERT_EQ(isolated->logs.size(), in_process->logs.size());
    for (size_t i = 0; i < isolated->logs.size(); ++i) {
      ExpectLogsEqual(isolated->logs[i], in_process->logs[i]);
    }
  }
  EXPECT_EQ((*target)->executions(), reference.executions());
  EXPECT_EQ((*target)->counters().respawns, 0);
  EXPECT_EQ((*target)->peer_catalog_size(), model->catalog().size());
}

TEST(SubprocessTargetTest, FlakyModelMatchesPositionally) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel(11);
  SubjectSpec spec;
  spec.kind = SubjectKind::kFlakyModel;
  spec.model = model.get();
  spec.manifest_probability = 0.5;
  spec.flaky_seed = 3;
  auto target = SubprocessTarget::Create(spec);
  ASSERT_TRUE(target.ok()) << target.status();

  FlakyModelTarget reference(model.get(), 0.5, 3);
  // Seek both somewhere nontrivial; positional nondeterminism must agree.
  (*target)->SeekTrial(5);
  reference.SeekTrial(5);
  auto isolated = (*target)->RunIntervened({}, 8);
  auto in_process = reference.RunIntervened({}, 8);
  ASSERT_TRUE(isolated.ok()) << isolated.status();
  ASSERT_TRUE(in_process.ok());
  ASSERT_EQ(isolated->logs.size(), in_process->logs.size());
  for (size_t i = 0; i < isolated->logs.size(); ++i) {
    ExpectLogsEqual(isolated->logs[i], in_process->logs[i]);
  }
}

TEST(SubprocessTargetTest, CrashIsRecordedAsFailingTrialAndRespawns) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  SubprocessOptions options;
  options.inject_crash_period = 3;  // trials 2, 5, 8, ... (0-based) crash
  auto target = SubprocessTarget::Create(ModelSpec(model.get()), options);
  ASSERT_TRUE(target.ok()) << target.status();

  auto result = (*target)->RunIntervened({}, 9);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->logs.size(), 9u);
  int crashed = 0;
  for (size_t i = 0; i < result->logs.size(); ++i) {
    const PredicateLog& log = result->logs[i];
    if ((i + 1) % 3 == 0) {
      EXPECT_TRUE(log.failed) << "crashed trial " << i << " must fail";
      EXPECT_EQ(log.outcome, TrialOutcome::kCrashed);
      EXPECT_FALSE(log.complete());
      ++crashed;
    } else {
      EXPECT_EQ(log.outcome, TrialOutcome::kCompleted);
      EXPECT_TRUE(log.complete());
    }
  }
  EXPECT_EQ(crashed, 3);
  EXPECT_EQ((*target)->counters().crashed_trials, 3);
  EXPECT_EQ((*target)->counters().respawns, 3);
  EXPECT_EQ((*target)->counters().timed_out_trials, 0);
  EXPECT_EQ((*target)->executions(), 9);
}

TEST(SubprocessTargetTest, HangIsKilledAtDeadlineAndRespawns) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  SubprocessOptions options;
  options.inject_hang_period = 4;  // trial 3 (0-based) hangs
  options.trial_deadline_ms = 300;
  auto target = SubprocessTarget::Create(ModelSpec(model.get()), options);
  ASSERT_TRUE(target.ok()) << target.status();

  auto result = (*target)->RunIntervened({}, 5);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->logs.size(), 5u);
  EXPECT_EQ(result->logs[3].outcome, TrialOutcome::kTimedOut);
  EXPECT_TRUE(result->logs[3].failed);
  for (size_t i : {0u, 1u, 2u, 4u}) {
    EXPECT_EQ(result->logs[i].outcome, TrialOutcome::kCompleted);
  }
  EXPECT_EQ((*target)->counters().timed_out_trials, 1);
  EXPECT_EQ((*target)->counters().respawns, 1);
  EXPECT_EQ((*target)->counters().crashed_trials, 0);
}

TEST(SubprocessTargetTest, CrashLoopAbortsAtMaxRespawns) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  SubprocessOptions options;
  options.inject_crash_period = 1;  // every trial crashes
  options.max_respawns = 3;
  auto target = SubprocessTarget::Create(ModelSpec(model.get()), options);
  ASSERT_TRUE(target.ok()) << target.status();

  auto result = (*target)->RunIntervened({}, 50);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ((*target)->counters().respawns, 3);
}

TEST(SubprocessTargetTest, PoolsUnderParallelTarget) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  auto primary = SubprocessTarget::Create(ModelSpec(model.get()));
  ASSERT_TRUE(primary.ok()) << primary.status();
  auto pool = ParallelTarget::Create(primary->get(), 3);
  ASSERT_TRUE(pool.ok()) << pool.status();

  ModelTarget reference(model.get());
  InterventionSpans spans;
  for (PredicateId id : model->predicates()) spans.push_back({id});
  auto pooled = (*pool)->RunInterventionsBatch(spans, 2);
  auto serial = reference.RunInterventionsBatch(spans, 2);
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(pooled->size(), serial->size());
  for (size_t k = 0; k < pooled->size(); ++k) {
    ASSERT_EQ((*pooled)[k].logs.size(), (*serial)[k].logs.size());
    for (size_t i = 0; i < (*pooled)[k].logs.size(); ++i) {
      ExpectLogsEqual((*pooled)[k].logs[i], (*serial)[k].logs[i]);
    }
  }
  EXPECT_EQ((*pool)->executions(), reference.executions());
  EXPECT_EQ((*pool)->counters().respawns, 0);
}

TEST(SubprocessTargetTest, MissingHostBinaryFailsWithClearError) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  SubprocessOptions options;
  options.host_path = "/nonexistent/aid_subject_host";
  options.startup_timeout_ms = 5000;
  auto target = SubprocessTarget::Create(ModelSpec(model.get()), options);
  ASSERT_TRUE(target.ok()) << target.status();
  auto result = (*target)->RunIntervened({}, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("subject host"),
            std::string::npos);
}

TEST(SubprocessTargetTest, CatalogMismatchIsCaughtAtHandshake) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  SubprocessOptions options;
  options.expected_catalog_size =
      static_cast<uint32_t>(model->catalog().size()) + 5;  // deliberately wrong
  auto target = SubprocessTarget::Create(ModelSpec(model.get()), options);
  ASSERT_TRUE(target.ok()) << target.status();
  auto result = (*target)->RunIntervened({}, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("catalog"), std::string::npos);
}

TEST(SubprocessTargetTest, InvalidOptionsAreRejectedAtCreate) {
  auto model = MakeModel();
  SubprocessOptions negative_deadline;
  negative_deadline.trial_deadline_ms = -1;
  EXPECT_FALSE(
      SubprocessTarget::Create(ModelSpec(model.get()), negative_deadline)
          .ok());
  SubprocessOptions negative_respawns;
  negative_respawns.max_respawns = -1;
  EXPECT_FALSE(
      SubprocessTarget::Create(ModelSpec(model.get()), negative_respawns)
          .ok());
}

TEST(SubprocessTargetTest, CloneContinuesAtTheCursor) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  auto target = SubprocessTarget::Create(ModelSpec(model.get()));
  ASSERT_TRUE(target.ok()) << target.status();
  ASSERT_TRUE((*target)->RunIntervened({}, 4).ok());
  EXPECT_EQ((*target)->trial_position(), 4u);
  auto clone = (*target)->Clone();
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ((*clone)->trial_position(), 4u);
  EXPECT_EQ((*clone)->executions(), 0);
}

}  // namespace
}  // namespace aid
