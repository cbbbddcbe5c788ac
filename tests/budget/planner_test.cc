// Tests of trial planning: BeliefState::PlanTrials, the SPRT requirement on
// consecutive passes before a group is declared spurious, under the causal
// prior and the learned flakiness posterior.

#include <gtest/gtest.h>

#include "budget/belief.h"

namespace aid {
namespace {

class BudgetPlannerTest : public ::testing::Test {
 protected:
  PredicateId Pred(int index) {
    return catalog_.Intern(
        Predicate{.kind = PredKind::kSynthetic, .occurrence = index});
  }

  PredicateCatalog catalog_;
};

TEST_F(BudgetPlannerTest, SprtRequirementAtTheDefaults) {
  // eps = 0.02, m = 0.8, p = 0.5:
  // k >= (ln 49 - ln 1) / -ln 0.2 = 3.892 / 1.609 = 2.42 -> 3 trials.
  const PredicateId a = Pred(1);
  BeliefState belief(BudgetOptions{});
  belief.SeedCandidates({a});
  EXPECT_EQ(belief.PlanTrials({a}, /*cap=*/10), 3);
  // The configured cap wins.
  EXPECT_EQ(belief.PlanTrials({a}, /*cap=*/2), 2);
  EXPECT_EQ(belief.PlanTrials({a}, /*cap=*/0), 1);
}

TEST_F(BudgetPlannerTest, LearnedDeterminismNeedsFewerTrials) {
  // The flakiness posterior, not prior optimism, is what shrinks rounds: a
  // target whose failures always manifest pushes m toward 1 and the SPRT
  // requirement toward a single trial.
  const PredicateId a = Pred(1);
  BeliefState belief(BudgetOptions{});
  belief.SeedCandidates({a});
  const int before = belief.PlanTrials({a}, /*cap=*/10);
  for (int i = 0; i < 10; ++i) {
    belief.ObservePersistingRound(/*passes_before_failure=*/0);
  }
  EXPECT_LT(belief.PlanTrials({a}, /*cap=*/10), before);
  for (int i = 0; i < 200; ++i) {
    belief.ObservePersistingRound(/*passes_before_failure=*/0);
  }
  EXPECT_EQ(belief.PlanTrials({a}, /*cap=*/10), 1);
}

TEST_F(BudgetPlannerTest, OptimisticPriorNeverLowersTheFlatRequirement) {
  // Soundness cap: prior confidence (or an inflated noisy-or group prior)
  // can never let a spurious group slip through with fewer passes than the
  // flat-odds SPRT bound demands.
  const PredicateId a = Pred(1);
  BudgetOptions options;
  options.causal_prior = 0.99;
  BeliefState belief(options);
  belief.SeedCandidates({a});
  EXPECT_EQ(belief.PlanTrials({a}, /*cap=*/10), 3);
}

TEST_F(BudgetPlannerTest, UnlikelyCausalGroupsDemandMoreEvidence) {
  const PredicateId a = Pred(1);
  BudgetOptions options;
  options.causal_prior = 0.05;  // a stop would be very surprising
  BeliefState belief(options);
  belief.SeedCandidates({a});
  EXPECT_GT(belief.PlanTrials({a}, /*cap=*/20), 3);
}

TEST_F(BudgetPlannerTest, FlakierTargetsDemandMoreTrials) {
  const PredicateId a = Pred(1);
  BudgetOptions noisy;
  noisy.flakiness_prior_alpha = 1.0;  // mean m = 0.5: passes are weak
  noisy.flakiness_prior_beta = 1.0;
  BeliefState noisy_belief(noisy);
  noisy_belief.SeedCandidates({a});

  BeliefState crisp_belief(BudgetOptions{});  // default mean 0.8
  crisp_belief.SeedCandidates({a});

  EXPECT_GT(noisy_belief.PlanTrials({a}, /*cap=*/100),
            crisp_belief.PlanTrials({a}, /*cap=*/100));
}

}  // namespace
}  // namespace aid
