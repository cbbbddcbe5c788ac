// Tests of the engine extensions: linear-scan mode (Section 2's crossover
// regime), assumption-violation detection (Section 5.1), robustness to
// flaky targets (footnote 1), and report rendering.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/report.h"
#include "synth/flaky_target.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

GroundTruthModel MakeChainModel(int n, std::vector<int> causal_positions) {
  GroundTruthModel model;
  model.AddFailure();
  std::vector<PredicateId> chain;
  for (int i = 0; i < n; ++i) chain.push_back(model.AddPredicate(i));
  for (int i = 0; i + 1 < n; ++i) {
    model.AddTemporalEdge(chain[static_cast<size_t>(i)],
                          chain[static_cast<size_t>(i) + 1]);
  }
  std::vector<PredicateId> causal;
  for (int pos : causal_positions) {
    causal.push_back(chain[static_cast<size_t>(pos)]);
  }
  model.SetCausalChain(causal);
  return model;
}

TEST(LinearScanTest, InterveneOneAtATime) {
  GroundTruthModel model = MakeChainModel(6, {2});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  EngineOptions options = EngineOptions::Linear();
  options.predicate_pruning = false;
  CausalPathDiscovery discovery(&*dag, &target, options);
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  // Every round touches exactly one predicate; all six get visited.
  EXPECT_EQ(report->rounds, 6);
  for (const auto& round : report->history) {
    EXPECT_EQ(round.intervened.size(), 1u);
  }
  EXPECT_EQ(report->root_cause(), model.causal_chain().front());
}

TEST(LinearScanTest, PruningStillShortensTheScan) {
  // With predicate pruning on, intervening on the single cause stops the
  // failure and prunes every still-occurring candidate downstream.
  GroundTruthModel model = MakeChainModel(8, {0});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Linear());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->rounds, 8);
  EXPECT_EQ(report->root_cause(), model.causal_chain().front());
}

TEST(AssumptionViolationTest, ConjunctiveCausesOnDisjointBranchesAreFlagged) {
  // a and b sit on parallel branches and the failure needs both: each is
  // individually counterfactual. Pruning is disabled here because both
  // branch pruning and Definition 2 *embody* the single-root-cause
  // assumption (see the companion test below); plain group intervention
  // confirms both causes and the unordered pair trips the chain check.
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId root = model.AddPredicate(0);
  const PredicateId a = model.AddPredicate(1);
  const PredicateId b = model.AddPredicate(2);
  model.AddTemporalEdge(root, a);
  model.AddTemporalEdge(root, b);
  model.SetTrueParents(a, {});
  model.SetTrueParents(b, {});
  // Wire F = a AND b directly (bypassing SetCausalChain).
  model.SetTrueParents(model.failure(), {a, b});

  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::AidNoPruning());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  // Both causes found (plus F)...
  EXPECT_EQ(report->causal_path.size(), 3u);
  // ...and the chain violation is reported.
  EXPECT_FALSE(report->path_is_chain);
}

TEST(AssumptionViolationTest, PruningEmbodiesTheSingleRootCauseAssumption) {
  // With full AID, intervening on one conjunctive cause stops the failure
  // while the other still occurs; Definition 2 then (correctly, under the
  // paper's Assumption 1) discards the other as spurious. The result is a
  // well-formed chain containing one of the two causes -- the documented
  // behavior when the assumption is violated.
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(0);
  const PredicateId b = model.AddPredicate(1);
  model.SetTrueParents(model.failure(), {a, b});

  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->causal_path.size(), 2u);  // one cause + F
  EXPECT_TRUE(report->path_is_chain);
  const PredicateId found = report->root_cause();
  EXPECT_TRUE(found == a || found == b);
}

TEST(AssumptionViolationTest, ProperChainsAreNotFlagged) {
  GroundTruthModel model = MakeChainModel(5, {1, 3});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->path_is_chain);
}

TEST(FlakyTargetTest, EnoughTrialsRecoverTheTruth) {
  GroundTruthModel model = MakeChainModel(7, {2, 4});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  // The failure manifests on 60% of executions; 8 trials make a silent
  // miss (0.4^8 ~ 0.07%) negligible for this seed.
  FlakyModelTarget target(&model, /*manifest_probability=*/0.6, /*seed=*/11);
  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 8;
  CausalPathDiscovery discovery(&*dag, &target, options);
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  std::vector<PredicateId> expected = model.causal_chain();
  expected.push_back(model.failure());
  EXPECT_EQ(report->causal_path, expected);
  EXPECT_EQ(report->executions, report->rounds * 8);
}

TEST(FlakyTargetTest, SingleTrialCanBeFooledButTerminates) {
  GroundTruthModel model = MakeChainModel(7, {2, 4});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  FlakyModelTarget target(&model, /*manifest_probability=*/0.5, /*seed=*/3);
  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 1;
  CausalPathDiscovery discovery(&*dag, &target, options);
  auto report = discovery.Run();
  // No correctness guarantee with one trial on a flaky target, but the
  // engine must terminate cleanly with a well-formed report.
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->causal_path.empty());
  EXPECT_EQ(report->causal_path.back(), model.failure());
}

TEST(ReportTest, RendersRootCausePathAndTranscript) {
  GroundTruthModel model = MakeChainModel(4, {1});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());

  ReportRenderOptions options;
  options.include_spurious = true;
  const std::string text = RenderReport(*report, *dag, options);
  EXPECT_NE(text.find("root cause:"), std::string::npos);
  EXPECT_NE(text.find("causal explanation path:"), std::string::npos);
  EXPECT_NE(text.find("intervention transcript:"), std::string::npos);
  EXPECT_NE(text.find("proven spurious:"), std::string::npos);
  EXPECT_NE(text.find("FAILURE"), std::string::npos);
  EXPECT_EQ(text.find("WARNING"), std::string::npos);
}

// --- process-isolation health accounting ----------------------------------

namespace {

/// Wraps a ModelTarget, injecting crash/timeout outcomes on chosen trials
/// and reporting health counters -- the engine-facing behavior of
/// proc::SubprocessTarget without any real processes.
class UnhealthyTarget : public InterventionTarget {
 public:
  explicit UnhealthyTarget(const GroundTruthModel* model) : inner_(model) {}

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override {
    AID_ASSIGN_OR_RETURN(TargetRunResult result,
                         inner_.RunIntervened(intervened, trials));
    for (auto& log : result.logs) {
      const uint64_t trial = trial_cursor_++;
      if (crash_period != 0 && (trial + 1) % crash_period == 0 &&
          (crash_budget < 0 ||
           health_.crashed_trials < static_cast<uint64_t>(crash_budget))) {
        // A crashed trial: failing, partial (empty) observations.
        log = PredicateLog{};
        log.failed = true;
        log.outcome = TrialOutcome::kCrashed;
        ++health_.crashed_trials;
        ++health_.respawns;
      }
    }
    return result;
  }
  uint64_t executions() const override { return inner_.executions(); }
  SubstrateCounters counters() const override {
    SubstrateCounters counters = health_;
    counters.executions = executions();
    return counters;
  }

  uint64_t crash_period = 0;
  int crash_budget = -1;  ///< max crashed trials; -1 = unlimited

 private:
  ModelTarget inner_;
  uint64_t trial_cursor_ = 0;
  SubstrateCounters health_;
};

}  // namespace

TEST(SubstrateCountersTest, EngineSurfacesHealthDeltasInTheReport) {
  GroundTruthModel model = MakeChainModel(6, {2});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  UnhealthyTarget target(&model);
  target.crash_period = 4;
  EngineOptions options;
  options.trials_per_intervention = 2;
  CausalPathDiscovery discovery(&*dag, &target, options);
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->crashed_trials, 0);
  EXPECT_EQ(report->respawns, report->crashed_trials);
  EXPECT_EQ(report->timed_out_trials, 0);
  EXPECT_EQ(report->crashed_trials, target.counters().crashed_trials);

  // A second run reports only its own deltas, not the cumulative counters.
  CausalPathDiscovery second(&*dag, &target, options);
  auto second_report = second.Run();
  ASSERT_TRUE(second_report.ok());
  EXPECT_EQ(second_report->crashed_trials,
            target.counters().crashed_trials - report->crashed_trials);

  const std::string text = RenderReport(*report, *dag);
  EXPECT_NE(text.find("crashed trials"), std::string::npos);
}

TEST(SubstrateCountersTest, PruningIgnoresPartialLogs) {
  // A crashed trial's log is failing but PARTIAL (here: empty). Definition 2
  // would read "failed, and P was not observed" from it and prune every
  // still-undecided candidate -- including the real root cause. The engine
  // must skip partial logs in pruning while still letting the crash count as
  // the round's failure.
  GroundTruthModel model = MakeChainModel(5, {3});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  UnhealthyTarget target(&model);
  target.crash_period = 1;      // first trial crashes...
  target.crash_budget = 1;      // ...and only the first

  EngineOptions options = EngineOptions::Linear();  // pruning on, 1-by-1 scan
  CausalPathDiscovery discovery(&*dag, &target, options);
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());

  // Round 1 (intervening the first chain predicate) saw only the crashed
  // log: the intervened predicate is rightly spurious (failure persisted),
  // but nothing else may be pruned from that empty log -- the scan must go
  // on to certify the true root cause at position 3.
  EXPECT_EQ(report->crashed_trials, 1);
  EXPECT_EQ(report->root_cause(), model.causal_chain().front());
  // Rounds 1-4 scan P0..P3 (P3 certifies; its complete success log then
  // legitimately prunes P4). Without the partial-log guard the crashed
  // round-1 log would have pruned everything and discovery would stop at 1.
  EXPECT_EQ(report->rounds, 4);
}

TEST(ReportTest, WarnsOnAssumptionViolation) {
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(0);
  const PredicateId b = model.AddPredicate(1);
  model.SetTrueParents(model.failure(), {a, b});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::AidNoPruning());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->path_is_chain);
  const std::string text = RenderReport(*report, *dag);
  EXPECT_NE(text.find("WARNING"), std::string::npos);
}

}  // namespace
}  // namespace aid
