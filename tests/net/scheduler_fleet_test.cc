// Heterogeneous-fleet tests of the latency-aware scheduler
// (exec/scheduler.h) over a round-robin-dealt fleet (net/fleet_target.h):
// bit-identical reports with one runner 10x slower than the rest, the
// FleetTarget cursor-commit-on-success regression, and a fast runner
// killed mid-session degrading (not failing) onto the slow one.

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <cstdlib>

#include "api/session.h"
#include "common/strings.h"
#include "exec/scheduler.h"
#include "net/fleet_target.h"
#include "net/runner.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

#if AID_NET_SUPPORTED

/// Two full-speed runners plus one 10x-slower runner (it charges an extra
/// delay per trial, modeling a loaded machine; loopback RPC is ~a few
/// hundred us, so a few ms of injected delay dominates cleanly).
///
/// The fleet is embedded by default. Set AID_TEST_FLEET to
/// "fast:port,fast:port,slow:port" (the THIRD endpoint must be the slow
/// runner, e.g. `aid_runner --slow-us 3000`) to drive external runner
/// processes instead -- that is how CI runs this suite under
/// ThreadSanitizer, whose runtime cannot survive the runner's
/// fork-without-exec session children in-process, while the engine-side
/// machinery under test (chunk queues, steals, EWMA atomics) stays fully
/// instrumented.
class SchedulerFleetTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSlowTrialDelayUs = 3000;

  void SetUp() override {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = 7;
    auto model = GenerateSyntheticApp(options);
    ASSERT_TRUE(model.ok()) << model.status();
    model_ = std::move(*model);
    if (const char* external = std::getenv("AID_TEST_FLEET")) {
      fleet_ = Split(external, ',');
      ASSERT_EQ(fleet_.size(), 3u)
          << "AID_TEST_FLEET wants \"fast,fast,slow\" endpoints, got '"
          << external << "'";
      return;
    }
    for (int i = 0; i < 3; ++i) {
      RunnerOptions runner_options;
      if (i == 2) runner_options.trial_delay_us = kSlowTrialDelayUs;
      auto runner = Runner::Start(runner_options);
      ASSERT_TRUE(runner.ok()) << runner.status();
      fleet_.push_back((*runner)->endpoint().ToString());
      runners_.push_back(std::move(*runner));
    }
  }

  bool ExternalFleet() const { return runners_.empty(); }

  std::unique_ptr<GroundTruthModel> model_;
  std::vector<std::unique_ptr<Runner>> runners_;
  std::vector<std::string> fleet_;
};

TEST_F(SchedulerFleetTest, HeterogeneousFleetReportsAreBitIdentical) {
  for (int workers : {2, 4}) {
    auto baseline = SessionBuilder()
                        .WithModel(model_.get())
                        .WithTrials(6)
                        .WithParallelism(workers)
                        .Build();
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    auto baseline_report = baseline->Run();
    ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

    auto fleet = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(6)
                     .WithParallelism(workers)
                     .WithRemoteFleet(fleet_, /*trial_deadline_ms=*/20000)
                     .Build();
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    auto fleet_report = fleet->Run();
    ASSERT_TRUE(fleet_report.ok()) << fleet_report.status();

    // THE contract: a straggling runner, fine-grained chunks, latency
    // learning, and stealing may move every trial around -- and not one
    // byte of the decisions.
    EXPECT_TRUE(SameDiscoveryOutcome(baseline_report->discovery,
                                     fleet_report->discovery));
    EXPECT_EQ(fleet_report->discovery.crashed_trials, 0u);
    EXPECT_EQ(fleet_report->discovery.timed_out_trials, 0u);
    // Dispatch accounting stays exact under heterogeneity.
    ASSERT_EQ(fleet_report->discovery.replica_trials.size(),
              static_cast<size_t>(workers));
    EXPECT_EQ(std::accumulate(fleet_report->discovery.replica_trials.begin(),
                              fleet_report->discovery.replica_trials.end(),
                              uint64_t{0}),
              fleet_report->discovery.executions);
  }
}

TEST_F(SchedulerFleetTest, FleetCursorCommitsOnlyOnSuccess) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model_.get();
  auto endpoints_or = ParseEndpoints(fleet_);
  ASSERT_TRUE(endpoints_or.ok()) << endpoints_or.status();
  std::vector<Endpoint> endpoints = *endpoints_or;
  RemoteOptions options;
  options.trial_deadline_ms = 20000;
  // Crash on the 3rd trial with no reconnect budget: the call fails
  // mid-stream after consuming a partial prefix.
  options.inject_crash_period = 3;
  options.max_respawns = 0;
  auto fleet = FleetTarget::Create(endpoints, spec, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  auto result = (*fleet)->RunIntervened({}, 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  // Regression: the cursor used to adopt the replica's half-advanced
  // position on failure, desyncing it from what serial dispatch -- which
  // stops at its first error -- consumed. It must still read 0.
  EXPECT_EQ((*fleet)->trial_position(), 0u);
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

TEST_F(SchedulerFleetTest, KilledFastRunnerFailsOverOntoTheSlowRunner) {
  if (ExternalFleet()) {
    GTEST_SKIP() << "external runners (AID_TEST_FLEET) cannot be killed "
                    "from the test";
  }
  // Static sharding hands each replica its contiguous share of every
  // multi-chunk round. Work stealing could hand the killed runner's share
  // to the other replica in the round the kill precedes, leaving the dead
  // connection to crash a later round, whose verdict that crash can flip.
  SchedulerOptions scheduler;
  scheduler.policy = SchedulerPolicy::kStatic;
  auto baseline = SessionBuilder()
                      .WithModel(model_.get())
                      .WithTrials(4)
                      .WithParallelism(2)
                      .WithScheduler(scheduler)
                      .Build();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto baseline_report = baseline->Run();
  ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

  // Two workers over the fleet ordered fast, slow, fast: round-robin
  // dealing puts replica 0 on fast runner 0 and replica 1 on the slow
  // runner. Replica 0 runs the first share of every round, so its first
  // trial in the round the kill precedes crashes, and it fails over along
  // its order to the slow runner.
  RunnerAssassin assassin(model_.get(), runners_[0].get());
  auto session = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(4)
                     .WithParallelism(2)
                     .WithScheduler(scheduler)
                     .WithRemoteFleet({fleet_[0], fleet_[2], fleet_[1]},
                                      /*trial_deadline_ms=*/20000)
                     .WithObserver(&assassin)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_NE(assassin.fired_round(), 0u) << "runner 0 was never killed";
  // The session completed despite losing a runner mid-session on a
  // heterogeneous fleet: the lost replica's trial became a crashed trial +
  // failover, never an engine failure -- the fail-fast path only fires on
  // hard errors, not on recoverable crash degradation.
  EXPECT_GE(report->discovery.crashed_trials +
                report->discovery.timed_out_trials,
            1u);
  EXPECT_GE(report->discovery.respawns, 1u);
  EXPECT_TRUE(SameDiscoveryOutcome(baseline_report->discovery,
                                   report->discovery));
}

#else  // !AID_NET_SUPPORTED

TEST(SchedulerFleetTest, UnsupportedPlatformStillValidatesSchedulers) {
  SchedulerOptions bad;
  bad.chunks_per_worker = 0;
  EXPECT_EQ(ValidateSchedulerOptions(bad).code(),
            StatusCode::kInvalidArgument);
}

#endif  // AID_NET_SUPPORTED

}  // namespace
}  // namespace aid
