// Tests of the public aid::Session API: parity with direct engine use for
// all four presets, the target factory registry, the builder contract, the
// observer callbacks, and batched dispatch.

#include "api/session.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casestudies/case_study.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

std::unique_ptr<GroundTruthModel> MakeModel(int max_threads = 12,
                                            uint64_t seed = 7) {
  SyntheticAppOptions options;
  options.max_threads = max_threads;
  options.seed = seed;
  auto model = GenerateSyntheticApp(options);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(*model);
}

// --- preset parity: Session vs. direct CausalPathDiscovery ----------------

class SessionPresetTest : public ::testing::TestWithParam<EnginePreset> {};

TEST_P(SessionPresetTest, MatchesDirectEngineUseOnModelTarget) {
  const EnginePreset preset = GetParam();
  std::unique_ptr<GroundTruthModel> model = MakeModel();

  // Legacy path: hand-built target, DAG, and engine.
  auto dag = model->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();
  ModelTarget target(model.get());
  CausalPathDiscovery discovery(&*dag, &target, MakeEngineOptions(preset));
  auto legacy = discovery.Run();
  ASSERT_TRUE(legacy.ok()) << legacy.status();

  // New path: everything through the Session facade.
  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithEngine(preset)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->discovery.causal_path, legacy->causal_path);
  EXPECT_EQ(report->discovery.spurious, legacy->spurious);
  EXPECT_EQ(report->discovery.rounds, legacy->rounds);
  EXPECT_EQ(report->discovery.executions, legacy->executions);
  EXPECT_EQ(report->discovery.path_is_chain, legacy->path_is_chain);
  EXPECT_EQ(report->acdag_nodes, static_cast<int>(dag->size()));

  // The discovered path is the ground truth.
  std::vector<PredicateId> truth = model->causal_chain();
  truth.push_back(model->failure());
  std::sort(truth.begin(), truth.end());
  std::vector<PredicateId> got = report->discovery.causal_path;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, truth);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, SessionPresetTest,
                         ::testing::Values(EnginePreset::kAid,
                                           EnginePreset::kAidNoPredicatePruning,
                                           EnginePreset::kAidNoPruning,
                                           EnginePreset::kTagt),
                         [](const auto& info) {
                           std::string name(EnginePresetName(info.param));
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(SessionTest, RunWithEngineOptionsReusesTheDag) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  auto session = SessionBuilder().WithModel(model.get()).Build();
  ASSERT_TRUE(session.ok()) << session.status();

  auto aid = session->Run(MakeEngineOptions(EnginePreset::kAid));
  ASSERT_TRUE(aid.ok()) << aid.status();
  const AcDag* dag_after_first = session->dag();
  ASSERT_NE(dag_after_first, nullptr);

  auto tagt = session->Run(MakeEngineOptions(EnginePreset::kTagt));
  ASSERT_TRUE(tagt.ok()) << tagt.status();
  EXPECT_EQ(session->dag(), dag_after_first);

  std::vector<PredicateId> a = aid->discovery.causal_path;
  std::vector<PredicateId> b = tagt->discovery.causal_path;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_LE(aid->discovery.rounds, tagt->discovery.rounds);
}

// --- target factory -------------------------------------------------------

TEST(TargetFactoryTest, BuiltinBackendsAreRegistered) {
  for (const char* name :
       {"vm", "model", "flaky-model", "case", "case:npgsql", "case:kafka",
        "case:cosmosdb", "case:network", "case:buildandtest",
        "case:healthtelemetry"}) {
    EXPECT_TRUE(TargetFactory::IsRegistered(name)) << name;
  }
  const std::vector<std::string> names = TargetFactory::RegisteredNames();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(TargetFactoryTest, UnknownBackendIsNotFound) {
  auto target = TargetFactory::Create("no-such-backend", {});
  ASSERT_FALSE(target.ok());
  EXPECT_EQ(target.status().code(), StatusCode::kNotFound);
}

TEST(TargetFactoryTest, UnknownCaseStudyIsNotFound) {
  TargetConfig config;
  config.case_study = "no-such-case";
  auto target = TargetFactory::Create("case", config);
  ASSERT_FALSE(target.ok());
  EXPECT_EQ(target.status().code(), StatusCode::kNotFound);
}

TEST(TargetFactoryTest, MissingInputsAreInvalidArgument) {
  EXPECT_EQ(TargetFactory::Create("vm", {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TargetFactory::Create("model", {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TargetFactoryTest, CustomBackendPlugsIntoSession) {
  // The registry is process-global and creators are never unregistered, so
  // the captured model must outlive any later lookup of "test-custom".
  static const std::unique_ptr<GroundTruthModel> model = MakeModel(8, 3);
  const GroundTruthModel* raw = model.get();
  TargetFactory::Register(
      "test-custom", [raw](const TargetConfig&) {
        return MakeModelSessionTarget(raw, 1.0, 1, "test-custom");
      });
  ASSERT_TRUE(TargetFactory::IsRegistered("test-custom"));

  auto session = SessionBuilder().WithTarget("test-custom", {}).Build();
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session->target().name(), "test-custom");
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->has_root_cause());
}

TEST(TargetFactoryTest, AdapterTargetDrivesSessionOverBorrowedPieces) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(10, 5);
  auto dag = model->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();
  ModelTarget target(model.get());

  auto session = SessionBuilder()
                     .WithTarget(MakeAdapterSessionTarget(
                         &target, &*dag, &model->catalog()))
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->has_root_cause());
  EXPECT_EQ(report->discovery.causal_path.back(), model->failure());
  // The borrowed intervention target did the work, and the session borrowed
  // the prebuilt DAG instead of copying it.
  EXPECT_GT(target.executions(), 0);
  EXPECT_EQ(session->dag(), &*dag);
}

// --- builder contract -----------------------------------------------------

TEST(SessionBuilderTest, BuildWithoutTargetFails) {
  auto session = SessionBuilder().WithEngine(EnginePreset::kAid).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilderTest, DeferredKnobsOverrideEngineOptionOrder) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(6, 2);
  // WithTrials / WithSeed land even though WithEngine comes later.
  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithTrials(4)
                     .WithSeed(99)
                     .WithEngine(EnginePreset::kTagt)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session->options().engine.trials_per_intervention, 4);
  EXPECT_EQ(session->options().engine.seed, 99u);
  EXPECT_FALSE(session->options().engine.topological_order);
}

TEST(SessionBuilderTest, RejectsNonPositiveTrials) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(6, 2);
  for (int trials : {0, -1, -100}) {
    auto session = SessionBuilder()
                       .WithModel(model.get())
                       .WithTrials(trials)
                       .Build();
    ASSERT_FALSE(session.ok()) << "trials=" << trials;
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(session.status().message().find(std::to_string(trials)),
              std::string::npos)
        << session.status();
  }
}

TEST(SessionBuilderTest, RejectsAbsurdTrials) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(6, 2);
  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithTrials(kMaxTrialsPerIntervention + 1)
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilderTest, RejectsInvalidTrialsFromEngineOptions) {
  // The validation guards the effective engine options, not just the
  // WithTrials knob.
  std::unique_ptr<GroundTruthModel> model = MakeModel(6, 2);
  EngineOptions options;
  options.trials_per_intervention = 0;
  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithEngineOptions(options)
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilderTest, RejectsInvalidBudgetOptions) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(6, 2);
  BudgetOptions budget;
  budget.enabled = true;
  budget.error_tolerance = 0.75;  // must be in (0, 0.5)
  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithAdaptiveBudget(budget)
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilderTest, AdaptiveBudgetLandsOnTheMainEngineOnly) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(6, 2);
  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithAdaptiveBudget()
                     .WithTagtBaseline()
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE(session->options().engine.budget.enabled);
  // The baseline stays fixed-trial so execution comparisons stay honest.
  EXPECT_FALSE(session->options().tagt_baseline.budget.enabled);
}

// --- observer -------------------------------------------------------------

class RecordingObserver : public Observer {
 public:
  void OnPhaseChanged(SessionPhase phase) override {
    phases.push_back(phase);
  }
  void OnRoundStarted(uint64_t round, const std::vector<PredicateId>&) override {
    started.push_back(round);
  }
  void OnRoundFinished(const ObservedRound& round) override {
    finished.push_back(round.round);
  }
  void OnPredicateDecided(PredicateId id, bool causal) override {
    (causal ? causal_ids : spurious_ids).push_back(id);
  }

  std::vector<SessionPhase> phases;
  std::vector<uint64_t> started;
  std::vector<uint64_t> finished;
  std::vector<PredicateId> causal_ids;
  std::vector<PredicateId> spurious_ids;
};

TEST(SessionObserverTest, ReportsPhasesRoundsAndDecisions) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  RecordingObserver observer;
  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithEngine(EnginePreset::kAid)
                     .WithObserver(&observer)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // Phases arrive in pipeline order (observation is skipped: the model
  // backend has no observation phase inside Build, but the phase change is
  // still announced before target creation).
  const std::vector<SessionPhase> expected_phases = {
      SessionPhase::kObservation,        SessionPhase::kStatisticalDebugging,
      SessionPhase::kAcDagConstruction,  SessionPhase::kBranchPruning,
      SessionPhase::kGiwp,               SessionPhase::kFinished,
  };
  EXPECT_EQ(observer.phases, expected_phases);

  // One start + one finish per round, numbered 1..rounds.
  ASSERT_EQ(static_cast<int>(observer.finished.size()),
            report->discovery.rounds);
  EXPECT_EQ(observer.started, observer.finished);
  for (size_t i = 0; i < observer.finished.size(); ++i) {
    EXPECT_EQ(observer.finished[i], static_cast<int>(i) + 1);
  }

  // Decisions match the report exactly.
  std::vector<PredicateId> causal = observer.causal_ids;
  std::sort(causal.begin(), causal.end());
  causal.erase(std::unique(causal.begin(), causal.end()), causal.end());
  std::vector<PredicateId> expected_causal = report->discovery.causal_path;
  expected_causal.pop_back();  // F is never "decided"
  std::sort(expected_causal.begin(), expected_causal.end());
  EXPECT_EQ(causal, expected_causal);

  std::vector<PredicateId> spurious = observer.spurious_ids;
  std::sort(spurious.begin(), spurious.end());
  spurious.erase(std::unique(spurious.begin(), spurious.end()),
                 spurious.end());
  EXPECT_EQ(spurious, report->discovery.spurious);
}

// --- batched dispatch -----------------------------------------------------

TEST(SessionBatchedDispatchTest, LinearScanDecisionsMatchSerialDispatch) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(16, 11);

  auto session = SessionBuilder().WithModel(model.get()).Build();
  ASSERT_TRUE(session.ok()) << session.status();

  EngineOptions serial = EngineOptions::Linear();
  auto serial_report = session->Run(serial);
  ASSERT_TRUE(serial_report.ok()) << serial_report.status();

  EngineOptions batched = EngineOptions::Linear();
  batched.batched_dispatch = true;
  auto batched_report = session->Run(batched);
  ASSERT_TRUE(batched_report.ok()) << batched_report.status();

  EXPECT_EQ(batched_report->discovery.causal_path,
            serial_report->discovery.causal_path);
  EXPECT_EQ(batched_report->discovery.spurious,
            serial_report->discovery.spurious);
  // Batching may execute interventions pruning would have skipped, never
  // fewer.
  EXPECT_GE(batched_report->discovery.executions,
            serial_report->discovery.rounds);
}

TEST(SessionBatchedDispatchTest, BuilderKnobEnablesBatching) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(6, 2);
  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithEngineOptions(EngineOptions::Linear())
                     .WithBatchedDispatch()
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE(session->options().engine.batched_dispatch);
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->has_root_cause());
}

// --- flaky backend through the facade -------------------------------------

TEST(SessionTest, FlakyModelBackendStillFindsTheRootCause) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(8, 13);
  auto session = SessionBuilder()
                     .WithFlakyModel(model.get(), 0.8, /*seed=*/5)
                     .WithTrials(10)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->has_root_cause());
  EXPECT_EQ(report->discovery.root_cause(), model->root_cause());
}

}  // namespace
}  // namespace aid
