// Tests of budget/planner.h: the SPRT trial requirement, the expected
// information gain of a round, the gain-per-cost score, and the latency
// EWMA cost model.

#include "budget/planner.h"

#include <gtest/gtest.h>

#include "budget/belief.h"

namespace aid {
namespace {

class BudgetPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = catalog_.Intern(
        Predicate{.kind = PredKind::kSynthetic, .occurrence = 1});
  }

  BeliefState MakeBelief(const BudgetOptions& options) {
    BeliefState belief(options);
    belief.SeedCandidates({a_});
    return belief;
  }

  PredicateCatalog catalog_;
  PredicateId a_ = kInvalidPredicate;
};

TEST_F(BudgetPlannerTest, SprtRequirementAtTheDefaults) {
  // eps = 0.02, m = 0.8, p = 0.5:
  // k >= (ln 49 - ln 1) / -ln 0.2 = 3.892 / 1.609 = 2.42 -> 3 trials.
  BudgetOptions options;
  BeliefState belief = MakeBelief(options);
  BudgetPlanner planner(options, &belief);
  EXPECT_EQ(planner.PlanTrials({a_}, /*cap=*/10), 3);
  // The configured cap wins.
  EXPECT_EQ(planner.PlanTrials({a_}, /*cap=*/2), 2);
  EXPECT_EQ(planner.PlanTrials({a_}, /*cap=*/0), 1);
}

TEST_F(BudgetPlannerTest, LearnedDeterminismNeedsFewerTrials) {
  // The flakiness posterior, not prior optimism, is what shrinks rounds: a
  // target whose failures always manifest pushes m toward 1 and the SPRT
  // requirement toward a single trial.
  BudgetOptions options;
  BeliefState belief = MakeBelief(options);
  BudgetPlanner planner(options, &belief);
  const int before = planner.PlanTrials({a_}, /*cap=*/10);
  for (int i = 0; i < 10; ++i) {
    belief.ObservePersistingRound(/*passes_before_failure=*/0);
  }
  EXPECT_LT(planner.PlanTrials({a_}, /*cap=*/10), before);
  for (int i = 0; i < 200; ++i) {
    belief.ObservePersistingRound(/*passes_before_failure=*/0);
  }
  EXPECT_EQ(planner.PlanTrials({a_}, /*cap=*/10), 1);
}

TEST_F(BudgetPlannerTest, OptimisticPriorNeverLowersTheFlatRequirement) {
  // Soundness cap: prior confidence (or an inflated noisy-or group prior)
  // can never let a spurious group slip through with fewer passes than the
  // flat-odds SPRT bound demands.
  BudgetOptions options;
  options.causal_prior = 0.99;
  BeliefState belief = MakeBelief(options);
  BudgetPlanner planner(options, &belief);
  EXPECT_EQ(planner.PlanTrials({a_}, /*cap=*/10), 3);
}

TEST_F(BudgetPlannerTest, UnlikelyCausalGroupsDemandMoreEvidence) {
  BudgetOptions options;
  options.causal_prior = 0.05;  // a stop would be very surprising
  BeliefState belief = MakeBelief(options);
  BudgetPlanner planner(options, &belief);
  EXPECT_GT(planner.PlanTrials({a_}, /*cap=*/20), 3);
}

TEST_F(BudgetPlannerTest, FlakierTargetsDemandMoreTrials) {
  BudgetOptions noisy;
  noisy.flakiness_prior_alpha = 1.0;  // mean m = 0.5: passes are weak
  noisy.flakiness_prior_beta = 1.0;
  BeliefState noisy_belief = MakeBelief(noisy);
  BudgetPlanner noisy_planner(noisy, &noisy_belief);

  BudgetOptions crisp;  // default mean 0.8
  BeliefState crisp_belief = MakeBelief(crisp);
  BudgetPlanner crisp_planner(crisp, &crisp_belief);

  EXPECT_GT(noisy_planner.PlanTrials({a_}, /*cap=*/100),
            crisp_planner.PlanTrials({a_}, /*cap=*/100));
}

TEST_F(BudgetPlannerTest, InformationGainPositiveAndZeroWhenCertain) {
  BudgetOptions options;
  BeliefState belief = MakeBelief(options);
  BudgetPlanner planner(options, &belief);
  const double one = planner.InformationGain({a_}, 1);
  const double three = planner.InformationGain({a_}, 3);
  EXPECT_GT(one, 0.0);
  EXPECT_GT(three, one);  // more trials, more expected entropy reduction

  belief.MarkCausal(a_);
  EXPECT_DOUBLE_EQ(planner.InformationGain({a_}, 3), 0.0);
  EXPECT_DOUBLE_EQ(planner.InformationGain({a_}, 0), 0.0);
}

TEST_F(BudgetPlannerTest, ScoreDividesGainByPredictedCost) {
  BudgetOptions options;
  options.cost_ewma_alpha = 1.0;  // adopt samples immediately
  BeliefState belief = MakeBelief(options);
  BudgetPlanner planner(options, &belief);

  const double cheap = planner.Score({a_}, 1);
  EXPECT_GT(cheap, 0.0);
  planner.ObserveRoundCost(/*micros=*/1000, /*trials=*/1);
  EXPECT_DOUBLE_EQ(planner.trial_cost_micros(), 1000.0);
  // Same gain, 1000x the predicted cost.
  EXPECT_NEAR(planner.Score({a_}, 1), cheap / 1000.0, 1e-12);
}

TEST_F(BudgetPlannerTest, UnmeasuredSubstrateLeavesTheCostModelAlone) {
  BudgetOptions options;
  BeliefState belief = MakeBelief(options);
  BudgetPlanner planner(options, &belief);
  planner.ObserveRoundCost(/*micros=*/0, /*trials=*/5);
  EXPECT_DOUBLE_EQ(planner.trial_cost_micros(), 0.0);
  planner.ObserveRoundCost(/*micros=*/100, /*trials=*/0);
  EXPECT_DOUBLE_EQ(planner.trial_cost_micros(), 0.0);
}

TEST_F(BudgetPlannerTest, CostEwmaBlendsSamples) {
  BudgetOptions options;
  options.cost_ewma_alpha = 0.25;
  BeliefState belief = MakeBelief(options);
  BudgetPlanner planner(options, &belief);
  planner.ObserveRoundCost(/*micros=*/400, /*trials=*/4);  // 100 us/trial
  const double first = planner.trial_cost_micros();
  EXPECT_GT(first, 0.0);
  planner.ObserveRoundCost(/*micros=*/4000, /*trials=*/4);  // 1000 us/trial
  EXPECT_GT(planner.trial_cost_micros(), first);
  EXPECT_LT(planner.trial_cost_micros(), 1000.0);  // EWMA, not last-sample
}

}  // namespace
}  // namespace aid
