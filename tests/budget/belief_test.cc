// Tests of budget/belief.h: posterior math for stopped rounds, flakiness
// learning from persisting rounds, and verdict pinning. The SPRT trial
// requirement (BeliefState::PlanTrials) is tested in planner_test.cc.

#include "budget/belief.h"

#include <gtest/gtest.h>

namespace aid {
namespace {

class BeliefStateTest : public ::testing::Test {
 protected:
  PredicateId Pred(int index) {
    return catalog_.Intern(
        Predicate{.kind = PredKind::kSynthetic, .occurrence = index});
  }

  PredicateCatalog catalog_;
};

TEST_F(BeliefStateTest, SeedsFlatPriorAndUnknownIsZero) {
  const PredicateId a = Pred(1);
  BudgetOptions options;
  BeliefState belief(options);
  belief.SeedCandidates({a});
  EXPECT_DOUBLE_EQ(belief.posterior(a), 0.5);
  EXPECT_DOUBLE_EQ(belief.posterior(999), 0.0);
}

TEST_F(BeliefStateTest, SeededPriorsStayInsideTheClamp) {
  const PredicateId a = Pred(1);
  BudgetOptions options;
  options.causal_prior = 0.001;
  BeliefState low(options);
  low.SeedCandidates({a});
  EXPECT_DOUBLE_EQ(low.posterior(a), 0.01);

  options.causal_prior = 0.999;
  BeliefState high(options);
  high.SeedCandidates({a});
  EXPECT_DOUBLE_EQ(high.posterior(a), 0.99);
}

TEST_F(BeliefStateTest, GroupProbabilityIsNoisyOr) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  BeliefState belief(BudgetOptions{});
  belief.SeedCandidates({a, b});
  // 1 - (1 - 0.5)^2 = 0.75.
  EXPECT_DOUBLE_EQ(belief.GroupCausalProbability({a, b}), 0.75);
  EXPECT_DOUBLE_EQ(belief.GroupCausalProbability({}), 0.0);
}

TEST_F(BeliefStateTest, FlakinessStartsAtThePriorMeanAndLearns) {
  const PredicateId a = Pred(1);
  BudgetOptions options;  // Beta(4, 1): mean 0.8
  BeliefState belief(options);
  belief.SeedCandidates({a});
  EXPECT_DOUBLE_EQ(belief.flakiness(), 0.8);

  // An immediate failure: one manifestation, no passes -> mean 5/6.
  belief.ObservePersistingRound(/*passes_before_failure=*/0);
  EXPECT_DOUBLE_EQ(belief.flakiness(), 5.0 / 6.0);

  // Three passes then a failure: alpha 6, beta 4 -> mean 0.6.
  belief.ObservePersistingRound(/*passes_before_failure=*/3);
  EXPECT_DOUBLE_EQ(belief.flakiness(), 0.6);
}

TEST_F(BeliefStateTest, StoppedRoundAppliesTheBayesFactor) {
  const PredicateId a = Pred(1);
  BeliefState belief(BudgetOptions{});  // m = 0.8, prior 0.5
  belief.SeedCandidates({a});
  belief.ObserveStoppedRound({a}, /*passes=*/1);
  // p' = 0.5 / (0.5 + 0.5 * 0.2) = 5/6.
  EXPECT_NEAR(belief.posterior(a), 5.0 / 6.0, 1e-12);

  // More passes push harder, but never to certainty.
  belief.ObserveStoppedRound({a}, /*passes=*/10);
  EXPECT_GT(belief.posterior(a), 5.0 / 6.0);
  EXPECT_LT(belief.posterior(a), 1.0);
}

TEST_F(BeliefStateTest, ZeroPassRoundIsANoOp) {
  const PredicateId a = Pred(1);
  BeliefState belief(BudgetOptions{});
  belief.SeedCandidates({a});
  belief.ObserveStoppedRound({a}, /*passes=*/0);
  EXPECT_DOUBLE_EQ(belief.posterior(a), 0.5);
}

TEST_F(BeliefStateTest, VerdictsPinOnlyTheirOwnPredicate) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId c = Pred(3);
  BeliefState belief(BudgetOptions{});
  belief.SeedCandidates({a, b, c});
  belief.MarkCausal(a);
  belief.MarkSpurious(b);
  EXPECT_DOUBLE_EQ(belief.posterior(a), 1.0);
  EXPECT_DOUBLE_EQ(belief.posterior(b), 0.0);
  EXPECT_DOUBLE_EQ(belief.posterior(c), 0.5);
}

TEST_F(BeliefStateTest, PinnedVerdictsIgnoreLaterEvidence) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  BeliefState belief(BudgetOptions{});
  belief.SeedCandidates({a, b});
  belief.MarkSpurious(a);
  belief.ObserveStoppedRound({a, b}, /*passes=*/3);
  EXPECT_DOUBLE_EQ(belief.posterior(a), 0.0);
  EXPECT_GT(belief.posterior(b), 0.5);
}

TEST_F(BeliefStateTest, SnapshotIsAscendingById) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId c = Pred(3);
  BeliefState belief(BudgetOptions{});
  belief.SeedCandidates({c, a, b});
  belief.MarkCausal(b);
  const std::vector<PredicateConfidence> snapshot = belief.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_LT(snapshot[0].id, snapshot[1].id);
  EXPECT_LT(snapshot[1].id, snapshot[2].id);
  for (const PredicateConfidence& entry : snapshot) {
    if (entry.id == b) EXPECT_DOUBLE_EQ(entry.causal_posterior, 1.0);
  }
}

}  // namespace
}  // namespace aid
