// Engine-level tests of adaptive budgeting: SPRT determinism under the
// seeded flaky oracle, early stopping on persisting rounds, execution
// savings against the fixed-trial baseline, graceful exhaustion of a
// global execution budget, and scan-order funding of a batch the budget
// cannot cover.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "core/discovery_state.h"
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

DiscoveryReport RunBudgeted(const GroundTruthModel* model,
                            double manifest_probability, uint64_t flaky_seed,
                            int trials, BudgetOptions budget = {}) {
  budget.enabled = true;
  SessionBuilder builder;
  if (manifest_probability < 1.0) {
    builder.WithFlakyModel(model, manifest_probability, flaky_seed);
  } else {
    builder.WithModel(model);
  }
  auto session = builder.WithTrials(trials)
                     .WithAdaptiveBudget(budget)
                     .Build();
  EXPECT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  EXPECT_TRUE(report.ok()) << report.status();
  return report->discovery;
}

DiscoveryReport RunFixed(const GroundTruthModel* model,
                         double manifest_probability, uint64_t flaky_seed,
                         int trials) {
  SessionBuilder builder;
  if (manifest_probability < 1.0) {
    builder.WithFlakyModel(model, manifest_probability, flaky_seed);
  } else {
    builder.WithModel(model);
  }
  auto session = builder.WithTrials(trials).Build();
  EXPECT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  EXPECT_TRUE(report.ok()) << report.status();
  return report->discovery;
}

TEST(SprtBudgetTest, DeterministicUnderTheSeededFlakyOracle) {
  // Two budgeted runs over identically seeded flaky targets are
  // bit-identical: the SPRT consumes trials one at a time, and the flaky
  // coin flips are a pure function of (seed, global trial index).
  std::unique_ptr<GroundTruthModel> model = MakeModel(10, 3);
  const DiscoveryReport a =
      RunBudgeted(model.get(), 0.8, /*flaky_seed=*/11, /*trials=*/5);
  const DiscoveryReport b =
      RunBudgeted(model.get(), 0.8, /*flaky_seed=*/11, /*trials=*/5);
  EXPECT_TRUE(SameDiscoveryOutcome(a, b));
  EXPECT_EQ(a.budgeted_trials_allocated, b.budgeted_trials_allocated);
  EXPECT_EQ(a.budgeted_trials_saved, b.budgeted_trials_saved);
  EXPECT_EQ(a.budget_early_stops, b.budget_early_stops);
}

TEST(SprtBudgetTest, DeterministicTargetSavesExecutions) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  const DiscoveryReport fixed = RunFixed(model.get(), 1.0, 1, /*trials=*/3);
  const DiscoveryReport budgeted =
      RunBudgeted(model.get(), 1.0, 1, /*trials=*/3);

  // Same verdicts, strictly cheaper: persisting rounds stop at the first
  // failing trial instead of running all three.
  EXPECT_EQ(budgeted.causal_path, fixed.causal_path);
  EXPECT_EQ(budgeted.spurious, fixed.spurious);
  EXPECT_LT(budgeted.executions, fixed.executions);
  EXPECT_GT(budgeted.budgeted_trials_saved, 0);
  EXPECT_GT(budgeted.budget_early_stops, 0u);
  EXPECT_FALSE(budgeted.budget_exhausted);
}

TEST(SprtBudgetTest, FlakyTargetFindsTheSameRootCauseCheaper) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(10, 13);
  const DiscoveryReport fixed =
      RunFixed(model.get(), 0.8, /*flaky_seed=*/5, /*trials=*/5);
  const DiscoveryReport budgeted =
      RunBudgeted(model.get(), 0.8, /*flaky_seed=*/5, /*trials=*/5);

  ASSERT_TRUE(fixed.has_root_cause());
  ASSERT_TRUE(budgeted.has_root_cause());
  EXPECT_EQ(budgeted.root_cause(), fixed.root_cause());
  EXPECT_EQ(budgeted.root_cause(), model->root_cause());
  EXPECT_LE(budgeted.executions, fixed.executions);
}

TEST(SprtBudgetTest, ConfidenceIsPinnedWhenTheBudgetSuffices) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(8, 5);
  const DiscoveryReport budgeted =
      RunBudgeted(model.get(), 1.0, 1, /*trials=*/3);
  ASSERT_FALSE(budgeted.confidence.empty());
  for (const PredicateConfidence& entry : budgeted.confidence) {
    EXPECT_TRUE(entry.causal_posterior == 0.0 ||
                entry.causal_posterior == 1.0)
        << "predicate " << entry.id << " at " << entry.causal_posterior;
  }
  EXPECT_GT(budgeted.budgeted_trials_allocated, 0u);
}

TEST(SprtBudgetTest, ExhaustedBudgetDegradesGracefully) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  BudgetOptions budget;
  budget.max_executions = 4;  // far too small to finish discovery
  const DiscoveryReport report =
      RunBudgeted(model.get(), 1.0, 1, /*trials=*/3, budget);

  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_LE(report.executions, 8u);  // one truncated round of slack at most
  // Some candidates stay undecided, carried as in-between confidence.
  bool undecided = false;
  for (const PredicateConfidence& entry : report.confidence) {
    if (entry.causal_posterior > 0.0 && entry.causal_posterior < 1.0) {
      undecided = true;
    }
  }
  EXPECT_TRUE(undecided);
}

TEST(SprtBudgetTest, RaisedCapAllowsMoreTrialsThanTheFixedCount) {
  // max_trials_per_round > trials_per_intervention lets a noisy candidate
  // earn more evidence than the fixed-trial engine would ever spend.
  std::unique_ptr<GroundTruthModel> model = MakeModel(8, 9);
  BudgetOptions budget;
  budget.max_trials_per_round = 50;
  budget.flakiness_prior_alpha = 1.0;  // weak prior: m starts at 0.5
  budget.flakiness_prior_beta = 1.0;
  const DiscoveryReport report =
      RunBudgeted(model.get(), 1.0, 1, /*trials=*/2, budget);
  ASSERT_TRUE(report.has_root_cause());
  EXPECT_EQ(report.root_cause(), model->root_cause());
}

TEST(SprtBudgetTest, BudgetWorksUnderBatchedLinearScan) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(10, 3);
  BudgetOptions budget;
  budget.enabled = true;

  auto fixed_session = SessionBuilder()
                           .WithModel(model.get())
                           .WithEngineOptions(EngineOptions::Linear())
                           .WithBatchedDispatch()
                           .WithTrials(3)
                           .Build();
  ASSERT_TRUE(fixed_session.ok()) << fixed_session.status();
  auto fixed = fixed_session->Run();
  ASSERT_TRUE(fixed.ok()) << fixed.status();

  auto session = SessionBuilder()
                     .WithModel(model.get())
                     .WithEngineOptions(EngineOptions::Linear())
                     .WithBatchedDispatch()
                     .WithTrials(3)
                     .WithAdaptiveBudget(budget)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto budgeted = session->Run();
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();

  EXPECT_EQ(budgeted->discovery.causal_path, fixed->discovery.causal_path);
  EXPECT_EQ(budgeted->discovery.spurious, fixed->discovery.spurious);
  EXPECT_LE(budgeted->discovery.executions, fixed->discovery.executions);
  EXPECT_GT(budgeted->discovery.budgeted_trials_allocated, 0u);
}

/// One discovery driven action by action, keeping the first batch it
/// planned and the execution count spent before that batch.
struct BatchRun {
  DiscoveryAction first_batch;
  uint64_t spent_before_batch = 0;
  DiscoveryReport report;
};

BatchRun DriveToReport(const GroundTruthModel* model,
                       const EngineOptions& options) {
  auto dag = model->BuildAcDag();
  EXPECT_TRUE(dag.ok()) << dag.status();
  ModelTarget target(model);
  DiscoveryState state(&*dag, options, Rng(options.seed));
  BatchRun run;
  bool saw_batch = false;
  for (;;) {
    auto action = state.NextAction();
    EXPECT_TRUE(action.ok()) << action.status();
    if (!action.ok() || action->kind == DiscoveryAction::Kind::kDone) break;
    if (action->kind == DiscoveryAction::Kind::kBatch && !saw_batch) {
      saw_batch = true;
      run.first_batch = *action;
      run.spent_before_batch = state.executions();
    }
    auto outcome = ExecuteDiscoveryAction(state, *action, &target);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    if (!outcome.ok()) break;
    EXPECT_TRUE(state.Feed(*action, *outcome).ok());
  }
  EXPECT_TRUE(saw_batch);
  auto report = state.Finalize();
  EXPECT_TRUE(report.ok()) << report.status();
  if (report.ok()) run.report = *report;
  return run;
}

TEST(SprtBudgetTest, QuotaFundsABatchGreedilyInScanOrder) {
  // A budgeted batched linear scan whose quota covers only about half of
  // its first batch: the funded spans must be exactly the ones a greedy
  // pass in scan order can pay for, the unfunded ones must stay undecided
  // (in-between confidence), and the run must stay inside the quota. The
  // second case runs the branch phase first, so the batch's spans hold
  // different posteriors; that is where any other funding order would
  // fund a different set. Definition 2 pruning is off so that no funded
  // span's result can decide an unfunded one.
  struct Case {
    const char* name;
    EngineOptions engine;
  };
  EngineOptions linear = EngineOptions::Linear();
  EngineOptions branch_first = EngineOptions::Aid();
  branch_first.linear_scan = true;
  for (const Case& c : {Case{"Linear preset", linear},
                        Case{"branch phase then linear scan", branch_first}}) {
    SCOPED_TRACE(c.name);
    SyntheticAppOptions app;
    app.max_threads = 10;
    app.seed = 3;
    auto model = GenerateSyntheticApp(app);
    ASSERT_TRUE(model.ok()) << model.status();

    EngineOptions options = c.engine;
    options.predicate_pruning = false;
    options.batched_dispatch = true;
    options.trials_per_intervention = 10;
    options.budget.enabled = true;
    const BatchRun unlimited = DriveToReport(model->get(), options);
    uint64_t batch_total = 0;
    for (int a : unlimited.first_batch.alloc) {
      batch_total += static_cast<uint64_t>(a);
    }
    options.budget.max_executions =
        unlimited.spent_before_batch + batch_total / 2;

    const BatchRun run = DriveToReport(model->get(), options);
    const DiscoveryAction& batch = run.first_batch;
    ASSERT_EQ(run.spent_before_batch, unlimited.spent_before_batch);
    ASSERT_EQ(batch.funded.size(), batch.spans.size());
    uint64_t left = options.budget.max_executions - run.spent_before_batch;
    std::vector<uint8_t> greedy;
    for (int a : batch.alloc) {
      const bool fits = static_cast<uint64_t>(a) <= left;
      if (fits) left -= static_cast<uint64_t>(a);
      greedy.push_back(fits ? 1 : 0);
    }
    EXPECT_EQ(batch.funded, greedy);
    ASSERT_NE(std::count(greedy.begin(), greedy.end(), 0), 0);
    ASSERT_NE(std::count(greedy.begin(), greedy.end(), 1), 0);

    EXPECT_TRUE(run.report.budget_exhausted);
    EXPECT_LE(run.report.executions, options.budget.max_executions);
    for (size_t k = 0; k < batch.spans.size(); ++k) {
      if (batch.funded[k]) continue;
      for (PredicateId id : batch.spans[k]) {
        const auto entry = std::find_if(
            run.report.confidence.begin(), run.report.confidence.end(),
            [id](const PredicateConfidence& e) { return e.id == id; });
        ASSERT_NE(entry, run.report.confidence.end()) << "predicate " << id;
        EXPECT_GT(entry->causal_posterior, 0.0) << "predicate " << id;
        EXPECT_LT(entry->causal_posterior, 1.0) << "predicate " << id;
      }
    }
  }
}

}  // namespace
}  // namespace aid
