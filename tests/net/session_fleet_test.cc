// Session-level tests of the remote fleet: bit-identical reports between
// in-process and loopback-fleet runs at several worker counts, flaky and
// VM-program subjects across the wire, builder validation, and a runner
// killed mid-session degrading into crashed-trial accounting + failover to
// the next runner in the round-robin deal instead of an engine failure.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "net/runner.h"
#include "runtime/program.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

#if AID_NET_SUPPORTED

class SessionFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = 7;
    auto model = GenerateSyntheticApp(options);
    ASSERT_TRUE(model.ok()) << model.status();
    model_ = std::move(*model);
    for (int i = 0; i < 2; ++i) {
      auto runner = Runner::Start();
      ASSERT_TRUE(runner.ok()) << runner.status();
      fleet_.push_back((*runner)->endpoint().ToString());
      runners_.push_back(std::move(*runner));
    }
  }

  std::vector<std::string> Fleet() const { return fleet_; }

  std::unique_ptr<GroundTruthModel> model_;
  std::vector<std::unique_ptr<Runner>> runners_;
  std::vector<std::string> fleet_;
};

void ExpectSameDiscovery(const DiscoveryReport& a, const DiscoveryReport& b) {
  EXPECT_EQ(a.causal_path, b.causal_path);
  EXPECT_EQ(a.spurious, b.spurious);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.speculative_executions, b.speculative_executions);
}

TEST_F(SessionFleetTest, FleetReportsAreBitIdenticalToInProcessRuns) {
  for (int workers : {1, 2, 4}) {
    auto baseline = SessionBuilder()
                        .WithModel(model_.get())
                        .WithTrials(3)
                        .WithParallelism(workers)
                        .Build();
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    auto baseline_report = baseline->Run();
    ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

    auto fleet = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(3)
                     .WithParallelism(workers)
                     .WithRemoteFleet(Fleet(), /*trial_deadline_ms=*/20000)
                     .Build();
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    auto fleet_report = fleet->Run();
    ASSERT_TRUE(fleet_report.ok()) << fleet_report.status();

    ExpectSameDiscovery(baseline_report->discovery, fleet_report->discovery);
    EXPECT_EQ(fleet_report->discovery.crashed_trials, 0);
    EXPECT_EQ(fleet_report->discovery.timed_out_trials, 0);
    EXPECT_EQ(fleet_report->discovery.respawns, 0);
  }
}

TEST_F(SessionFleetTest, FlakySubjectsStayDeterministicAcrossTheFleet) {
  auto baseline = SessionBuilder()
                      .WithFlakyModel(model_.get(), 0.7, /*seed=*/5)
                      .WithTrials(3)
                      .WithParallelism(2)
                      .Build();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto baseline_report = baseline->Run();
  ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

  auto fleet = SessionBuilder()
                   .WithFlakyModel(model_.get(), 0.7, /*seed=*/5)
                   .WithTrials(3)
                   .WithParallelism(2)
                   .WithRemoteFleet(Fleet(), /*trial_deadline_ms=*/20000)
                   .Build();
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto fleet_report = fleet->Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status();

  ExpectSameDiscovery(baseline_report->discovery, fleet_report->discovery);
}

TEST_F(SessionFleetTest, VmProgramsShipWholeToTheRunners) {
  // A hand-built VM program with an intermittent atomicity bug (the
  // quickstart subject, condensed): the runner-side child deserializes it,
  // re-runs the observation scan, and must land on the identical predicate
  // catalog and discovery report.
  ProgramBuilder b;
  b.Global("version", 1);
  b.Global("checksum", 1);
  {
    auto m = b.Method("Main");
    m.Spawn(0, "Writer").Spawn(1, "Reader").Join(0).Join(1).Return();
  }
  {
    auto m = b.Method("Writer");
    m.Random(0, 2);
    const size_t late = m.JumpIfNonZeroPlaceholder(0);
    m.Delay(10);
    const size_t go = m.JumpPlaceholder();
    m.PatchTarget(late);
    m.Delay(70);
    m.PatchTarget(go);
    m.CallVoid("PublishConfig").Return();
  }
  {
    auto m = b.Method("PublishConfig");
    m.LoadConst(1, 2)
        .StoreGlobal("version", 1)
        .Delay(30)
        .StoreGlobal("checksum", 1)
        .Return();
  }
  {
    auto m = b.Method("Reader");
    m.Random(0, 2);
    const size_t late = m.JumpIfNonZeroPlaceholder(0);
    m.Delay(30);
    const size_t go = m.JumpPlaceholder();
    m.PatchTarget(late);
    m.Delay(85);
    m.PatchTarget(go);
    m.CallVoid("ValidateConfig").Return();
  }
  {
    auto m = b.Method("ValidateConfig");
    m.SideEffectFree();
    m.LoadGlobal(0, "version")
        .LoadGlobal(1, "checksum")
        .CmpEq(2, 0, 1)
        .ThrowIfZero(2, "ChecksumMismatch")
        .Return(2);
  }
  auto program = b.Build("Main");
  ASSERT_TRUE(program.ok()) << program.status();

  auto baseline = SessionBuilder().WithProgram(&*program).WithTrials(2).Build();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto baseline_report = baseline->Run();
  ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

  auto fleet = SessionBuilder()
                   .WithProgram(&*program)
                   .WithTrials(2)
                   .WithRemoteFleet(Fleet(), /*trial_deadline_ms=*/60000)
                   .Build();
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto fleet_report = fleet->Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status();

  ExpectSameDiscovery(baseline_report->discovery, fleet_report->discovery);
}

/// Stops `victim` mid-session, from the engine's driving thread, just
/// before the first round that both (a) finds it hosting a live session
/// child -- a replica holds a connection to it that its next trial must
/// cross -- and (b) leaves the failure in place on the in-process model.
/// A trial lost to a dead connection is recorded as a crashed, failing
/// trial (the failure was certainly not repressed), so a crash inside a
/// round whose intervention would have stopped the failure legitimately
/// flips that round's verdict. With (b), and a dispatch that runs the
/// victim's replica in that very round, the crash costs a reconnect but
/// never a decision, and the report must match the in-process run.
class RunnerAssassin : public Observer {
 public:
  RunnerAssassin(const GroundTruthModel* model, Runner* victim)
      : model_(model), victim_(victim) {}
  void OnRoundStarted(uint64_t round,
                      const std::vector<PredicateId>& intervened) override {
    if (fired_round_ != 0 || victim_->live_sessions() == 0) return;
    ModelTarget oracle(model_);
    auto run = oracle.RunIntervened(intervened, 1);
    if (!run.ok() || !run->AnyFailed()) return;
    victim_->Stop();
    fired_round_ = round;
  }
  /// The round the victim was stopped before; 0 = never.
  uint64_t fired_round() const { return fired_round_; }

 private:
  const GroundTruthModel* model_;
  Runner* victim_;
  uint64_t fired_round_ = 0;
};

TEST_F(SessionFleetTest, KilledRunnerMidSessionDegradesInsteadOfFailing) {
  // Static sharding hands replica 0 -- dealt onto runner 0 -- the first
  // contiguous share of every multi-chunk round, so it connects in the
  // first round and runs first in the round the kill precedes; with work
  // stealing its share could be stolen and the crash never observed.
  SchedulerOptions scheduler;
  scheduler.policy = SchedulerPolicy::kStatic;
  auto baseline = SessionBuilder()
                      .WithModel(model_.get())
                      .WithTrials(3)
                      .WithParallelism(2)
                      .WithScheduler(scheduler)
                      .Build();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto baseline_report = baseline->Run();
  ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

  RunnerAssassin assassin(model_.get(), runners_[0].get());
  auto session = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(3)
                     .WithParallelism(2)
                     .WithScheduler(scheduler)
                     .WithRemoteFleet(Fleet(), /*trial_deadline_ms=*/20000)
                     .WithObserver(&assassin)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_NE(assassin.fired_round(), 0u) << "runner 0 was never killed";

  // The session completed; the turbulence is in the books: replica 0's
  // next trial crashed and its reconnect failed over to runner 1.
  EXPECT_GE(report->discovery.crashed_trials, 1);
  EXPECT_GE(report->discovery.respawns, 1);
  EXPECT_EQ(report->discovery.crashed_trials + report->discovery.timed_out_trials,
            report->discovery.respawns);
  EXPECT_TRUE(SameDiscoveryOutcome(baseline_report->discovery,
                                   report->discovery));
}

TEST_F(SessionFleetTest, BuilderRejectsFleetMisconfigurations) {
  // Empty endpoint list.
  auto empty = SessionBuilder()
                   .WithModel(model_.get())
                   .WithRemoteFleet({})
                   .Build();
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // Unparseable endpoint.
  auto garbled = SessionBuilder()
                     .WithModel(model_.get())
                     .WithRemoteFleet({"not-an-endpoint"})
                     .Build();
  ASSERT_FALSE(garbled.ok());
  EXPECT_EQ(garbled.status().code(), StatusCode::kInvalidArgument);

  // Fleet and subprocess isolation are mutually exclusive.
  auto both = SessionBuilder()
                  .WithModel(model_.get())
                  .WithProcessIsolation(1000)
                  .WithRemoteFleet(Fleet())
                  .Build();
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(both.status().message().find("mutually exclusive"),
            std::string::npos);

  // Negative deadline.
  auto negative = SessionBuilder()
                      .WithModel(model_.get())
                      .WithRemoteFleet(Fleet(), -5)
                      .Build();
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  // Prebuilt targets cannot be shipped to runners.
  auto prebuilt_target = MakeModelSessionTarget(model_.get());
  ASSERT_TRUE(prebuilt_target.ok());
  auto prebuilt = SessionBuilder()
                      .WithTarget(std::move(*prebuilt_target))
                      .WithRemoteFleet(Fleet())
                      .Build();
  ASSERT_FALSE(prebuilt.ok());
  EXPECT_EQ(prebuilt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prebuilt.status().message().find("factory backend"),
            std::string::npos);
}

TEST_F(SessionFleetTest, InjectedFleetChaosSurfacesInTheSessionReport) {
  // Deterministic crash injection through the factory config: the session
  // completes and the report carries the accounting.
  TargetConfig config;
  config.model = model_.get();
  config.fleet = Fleet();
  config.remote.trial_deadline_ms = 20000;
  config.remote.inject_crash_period = 7;
  auto session = SessionBuilder()
                     .WithTarget("model", std::move(config))
                     .WithTrials(3)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->discovery.crashed_trials, 1);
  EXPECT_EQ(report->discovery.respawns, report->discovery.crashed_trials);
}

#else  // !AID_NET_SUPPORTED

TEST(SessionFleetTest, UnsupportedPlatformFailsBuildWithUnimplemented) {
  auto session = SessionBuilder()
                     .WithCaseStudy("kafka")
                     .WithRemoteFleet({"localhost:7601"})
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kUnimplemented);
}

#endif  // AID_NET_SUPPORTED

}  // namespace
}  // namespace aid
