// Parity contracts of adaptive budgeting:
//   - budgeting DISABLED leaves every discovery report bit-identical to a
//     build that never heard of src/budget/ (the report's new fields stay
//     zero and SameDiscoveryOutcome ignores them);
//   - budgeting ENABLED reaches the same root cause as the fixed-trial
//     engine with no more executions, across all six case studies.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

const char* kCaseStudies[] = {"npgsql",  "kafka",        "cosmosdb",
                              "network", "buildandtest", "healthtelemetry"};

std::unique_ptr<GroundTruthModel> MakeModel(uint64_t seed = 7) {
  SyntheticAppOptions options;
  options.max_threads = 12;
  options.seed = seed;
  auto model = GenerateSyntheticApp(options);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(*model);
}

void ExpectBitIdentical(const DiscoveryReport& a, const DiscoveryReport& b) {
  EXPECT_TRUE(SameDiscoveryOutcome(a, b));
  EXPECT_EQ(a.causal_path, b.causal_path);
  EXPECT_EQ(a.spurious, b.spurious);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.speculative_executions, b.speculative_executions);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].intervened, b.history[i].intervened);
    EXPECT_EQ(a.history[i].failure_stopped, b.history[i].failure_stopped);
    EXPECT_EQ(a.history[i].phase, b.history[i].phase);
  }
}

TEST(BudgetParityTest, DisabledBudgetIsBitIdenticalOnModels) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();

  auto plain = SessionBuilder().WithModel(model.get()).WithTrials(3).Build();
  ASSERT_TRUE(plain.ok()) << plain.status();
  auto plain_report = plain->Run();
  ASSERT_TRUE(plain_report.ok()) << plain_report.status();

  BudgetOptions disabled;  // enabled defaults to false
  auto gated = SessionBuilder()
                   .WithModel(model.get())
                   .WithTrials(3)
                   .WithAdaptiveBudget(disabled)
                   .Build();
  ASSERT_TRUE(gated.ok()) << gated.status();
  auto gated_report = gated->Run();
  ASSERT_TRUE(gated_report.ok()) << gated_report.status();

  ExpectBitIdentical(gated_report->discovery, plain_report->discovery);
  // The budget-only report fields stay at their zero defaults.
  EXPECT_EQ(gated_report->discovery.budgeted_trials_allocated, 0u);
  EXPECT_EQ(gated_report->discovery.budgeted_trials_saved, 0);
  EXPECT_EQ(gated_report->discovery.budget_early_stops, 0u);
  EXPECT_FALSE(gated_report->discovery.budget_exhausted);
  EXPECT_TRUE(gated_report->discovery.confidence.empty());
}

TEST(BudgetParityTest, DisabledBudgetIsBitIdenticalOnFlakyModels) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(13);

  auto plain = SessionBuilder()
                   .WithFlakyModel(model.get(), 0.8, /*seed=*/5)
                   .WithTrials(5)
                   .Build();
  ASSERT_TRUE(plain.ok()) << plain.status();
  auto plain_report = plain->Run();
  ASSERT_TRUE(plain_report.ok()) << plain_report.status();

  auto gated = SessionBuilder()
                   .WithFlakyModel(model.get(), 0.8, /*seed=*/5)
                   .WithTrials(5)
                   .WithAdaptiveBudget(BudgetOptions{})
                   .Build();
  ASSERT_TRUE(gated.ok()) << gated.status();
  auto gated_report = gated->Run();
  ASSERT_TRUE(gated_report.ok()) << gated_report.status();

  ExpectBitIdentical(gated_report->discovery, plain_report->discovery);
}

class BudgetCaseStudyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BudgetCaseStudyTest, SameRootCauseNoMoreExecutions) {
  const std::string name = GetParam();

  auto fixed = SessionBuilder()
                   .WithCaseStudy(name)
                   .WithTrials(3)
                   .WithDescriptions(true)
                   .Build();
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  auto fixed_report = fixed->Run();
  ASSERT_TRUE(fixed_report.ok()) << fixed_report.status();

  auto budgeted = SessionBuilder()
                      .WithCaseStudy(name)
                      .WithTrials(3)
                      .WithAdaptiveBudget()
                      .WithDescriptions(true)
                      .Build();
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  auto budgeted_report = budgeted->Run();
  ASSERT_TRUE(budgeted_report.ok()) << budgeted_report.status();

  // Verdicts are identical; only the trial spend shrinks.
  EXPECT_EQ(budgeted_report->discovery.causal_path,
            fixed_report->discovery.causal_path);
  EXPECT_EQ(budgeted_report->discovery.spurious,
            fixed_report->discovery.spurious);
  EXPECT_EQ(budgeted_report->root_cause, fixed_report->root_cause);
  EXPECT_LE(budgeted_report->discovery.executions,
            fixed_report->discovery.executions);
  EXPECT_GE(budgeted_report->discovery.budgeted_trials_saved, 0);
  EXPECT_FALSE(budgeted_report->discovery.budget_exhausted);
}

INSTANTIATE_TEST_SUITE_P(AllCaseStudies, BudgetCaseStudyTest,
                         ::testing::ValuesIn(kCaseStudies));

}  // namespace
}  // namespace aid
