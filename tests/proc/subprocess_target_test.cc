// Tests of proc::SubprocessTarget end to end against the real
// aid_subject_host binary: parity with in-process dispatch, crash respawn,
// deadline kills, the batch lifecycle (a failing trial first, in the middle
// or last in one request, also under exec::ParallelTarget and over a
// loopback net::RemoteTarget), replica pooling, and the failure-path
// diagnostics (bad host path, catalog mismatch, crash loops).
//
// Skips gracefully on platforms without fork/exec.

#include "proc/subprocess_target.h"

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel_target.h"
#include "net/remote_target.h"
#include "net/runner.h"
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

// --- batch lifecycle ------------------------------------------------------
//
// One RunIntervened call is one RUN_TRIAL for all its trials. A crash or
// hang at any position of the batch must record that trial only, respawn,
// and re-send the rest, so outcomes, logs and counters equal what serial
// dispatch -- one trial per request -- gives at the same positions. Each
// case runs through a bare SubprocessTarget, through ParallelTarget with
// two subprocess replicas, and through a RemoteTarget on a loopback runner.

enum class Transport { kSubprocess, kParallel, kRemote };
enum class Fault { kCrash, kHang };

constexpr uint64_t kFaultPeriod = 7;  // 0-based trial 6 is poisoned
constexpr int kHangDeadlineMs = 300;

/// Keeps whatever a transport's target borrows alive beside it, declared
/// so the runner outlives the targets that talk to it.
struct Harness {
  std::unique_ptr<Runner> runner;
  std::unique_ptr<ReplicableTarget> primary;
  std::unique_ptr<ParallelTarget> pool;

  InterventionTarget* target() {
    return pool != nullptr ? static_cast<InterventionTarget*>(pool.get())
                           : primary.get();
  }
};

/// A harness whose target's trial cursor starts at `start`.
Harness MakeHarness(Transport transport, const SubjectSpec& spec,
                    Fault fault, uint64_t start) {
  WireReplicaOptions wire;
  if (fault == Fault::kCrash) {
    wire.inject_crash_period = kFaultPeriod;
    wire.trial_deadline_ms = 10000;
  } else {
    wire.inject_hang_period = kFaultPeriod;
    wire.trial_deadline_ms = kHangDeadlineMs;
  }
  Harness harness;
  if (transport == Transport::kRemote) {
    auto runner = Runner::Start();
    EXPECT_TRUE(runner.ok()) << runner.status();
    if (!runner.ok()) return harness;
    harness.runner = std::move(*runner);
    RemoteOptions options;
    static_cast<WireReplicaOptions&>(options) = wire;
    auto remote =
        RemoteTarget::Create({harness.runner->endpoint()}, spec, options);
    EXPECT_TRUE(remote.ok()) << remote.status();
    if (remote.ok()) harness.primary = std::move(*remote);
    if (harness.primary != nullptr) harness.primary->SeekTrial(start);
    return harness;
  }
  SubprocessOptions options;
  static_cast<WireReplicaOptions&>(options) = wire;
  auto target = SubprocessTarget::Create(spec, options);
  EXPECT_TRUE(target.ok()) << target.status();
  if (!target.ok()) return harness;
  harness.primary = std::move(*target);
  // A pool's replicas clone the primary's cursor.
  harness.primary->SeekTrial(start);
  if (transport == Transport::kParallel) {
    auto pool = ParallelTarget::Create(harness.primary.get(), 2);
    EXPECT_TRUE(pool.ok()) << pool.status();
    if (pool.ok()) harness.pool = std::move(*pool);
  }
  return harness;
}

class BatchLifecycleTest
    : public ::testing::TestWithParam<std::tuple<Transport, Fault, int>> {};

TEST_P(BatchLifecycleTest, FailingTrialMatchesSerialPositions) {
  SKIP_WITHOUT_FORK();
  const auto [transport, fault, position] = GetParam();
  auto model = MakeModel();
  // Two 3-trial calls; the poisoned trial sits at `position` of the first.
  const uint64_t start = kFaultPeriod - 1 - static_cast<uint64_t>(position);
  Harness harness =
      MakeHarness(transport, ModelSpec(model.get()), fault, start);
  InterventionTarget* target = harness.target();
  ASSERT_NE(target, nullptr);

  const std::vector<std::vector<PredicateId>> calls = {
      {}, {model->root_cause()}};
  uint64_t index = start;
  for (const auto& span : calls) {
    auto result = target->RunIntervened(span, 3);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->logs.size(), 3u);
    for (const PredicateLog& log : result->logs) {
      if ((index + 1) % kFaultPeriod == 0) {
        EXPECT_TRUE(log.failed) << "trial " << index;
        EXPECT_EQ(log.outcome, fault == Fault::kCrash
                                   ? TrialOutcome::kCrashed
                                   : TrialOutcome::kTimedOut)
            << "trial " << index;
        EXPECT_TRUE(log.observed.empty()) << "trial " << index;
      } else {
        ExpectLogsEqual(log, model->Execute(span));
      }
      ++index;
    }
  }
  const SubstrateCounters counters = target->counters();
  EXPECT_EQ(counters.executions, 6u);
  EXPECT_EQ(counters.crashed_trials, fault == Fault::kCrash ? 1u : 0u);
  EXPECT_EQ(counters.timed_out_trials, fault == Fault::kHang ? 1u : 0u);
  EXPECT_EQ(counters.respawns, 1u);
}

std::string BatchCaseName(
    const ::testing::TestParamInfo<BatchLifecycleTest::ParamType>& info) {
  static const char* const kTransports[] = {"Subprocess", "Parallel",
                                            "Remote"};
  static const char* const kPositions[] = {"First", "Middle", "Last"};
  return std::string(kTransports[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) == Fault::kCrash ? "Crash" : "Hang") +
         kPositions[std::get<2>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    FirstMiddleLast, BatchLifecycleTest,
    ::testing::Combine(::testing::Values(Transport::kSubprocess,
                                         Transport::kParallel,
                                         Transport::kRemote),
                       ::testing::Values(Fault::kCrash, Fault::kHang),
                       ::testing::Values(0, 1, 2)),
    BatchCaseName);

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
