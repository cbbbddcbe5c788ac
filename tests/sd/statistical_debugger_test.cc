#include "sd/statistical_debugger.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aid {
namespace {

// Builds a log set over a catalog of `n` synthetic predicates.
class SdTest : public ::testing::Test {
 protected:
  PredicateId Pred(int index) {
    return catalog_.Intern(
        Predicate{.kind = PredKind::kSynthetic, .occurrence = index});
  }

  PredicateLog MakeLog(bool failed, std::vector<PredicateId> observed) {
    PredicateLog log;
    log.failed = failed;
    Tick t = 0;
    for (PredicateId id : observed) {
      log.observed[id] = {t, t};
      ++t;
    }
    return log;
  }

  PredicateCatalog catalog_;
};

TEST_F(SdTest, RequiresBothOutcomes) {
  const PredicateId a = Pred(1);
  std::vector<PredicateLog> logs{MakeLog(true, {a})};
  EXPECT_FALSE(StatisticalDebugger::Analyze(catalog_, logs).ok());
}

TEST_F(SdTest, PrecisionAndRecall) {
  const PredicateId a = Pred(1);
  // a true in 2 of 3 failed runs and 1 of 2 successful runs.
  std::vector<PredicateLog> logs{
      MakeLog(true, {a}), MakeLog(true, {a}), MakeLog(true, {}),
      MakeLog(false, {a}), MakeLog(false, {})};
  auto sd = StatisticalDebugger::Analyze(catalog_, logs);
  ASSERT_TRUE(sd.ok());
  const PredicateStats& stats = sd->stats(a);
  EXPECT_DOUBLE_EQ(stats.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.recall(), 2.0 / 3.0);
  EXPECT_FALSE(stats.fully_discriminative());
}

TEST_F(SdTest, FullyDiscriminativeRequiresPerfectPrecisionAndRecall) {
  const PredicateId perfect = Pred(1);
  const PredicateId low_recall = Pred(2);
  const PredicateId low_precision = Pred(3);
  const PredicateId invariant = Pred(4);
  std::vector<PredicateLog> logs{
      MakeLog(true, {perfect, low_recall, low_precision, invariant}),
      MakeLog(true, {perfect, low_precision, invariant}),
      MakeLog(false, {low_precision, invariant}),
      MakeLog(false, {invariant})};
  auto sd = StatisticalDebugger::Analyze(catalog_, logs);
  ASSERT_TRUE(sd.ok());
  const auto fd = sd->FullyDiscriminative();
  ASSERT_EQ(fd.size(), 1u);
  EXPECT_EQ(fd[0], perfect);
  // The program invariant (true everywhere) has precision = failure rate.
  EXPECT_DOUBLE_EQ(sd->stats(invariant).precision(), 0.5);
  EXPECT_DOUBLE_EQ(sd->stats(invariant).recall(), 1.0);
}

TEST_F(SdTest, RankedOrdersByF1) {
  const PredicateId strong = Pred(1);
  const PredicateId weak = Pred(2);
  std::vector<PredicateLog> logs{
      MakeLog(true, {strong, weak}), MakeLog(true, {strong}),
      MakeLog(false, {weak}), MakeLog(false, {})};
  auto sd = StatisticalDebugger::Analyze(catalog_, logs);
  ASSERT_TRUE(sd.ok());
  const auto ranked = sd->Ranked();
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].id, strong);
  EXPECT_GE(ranked[0].stats.f1(), ranked[1].stats.f1());
}

TEST_F(SdTest, RankedMinRecallFilters) {
  const PredicateId rare = Pred(1);
  std::vector<PredicateLog> logs{MakeLog(true, {rare}), MakeLog(true, {}),
                                 MakeLog(true, {}), MakeLog(false, {})};
  auto sd = StatisticalDebugger::Analyze(catalog_, logs);
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->Ranked(0.0).size(), 1u);
  EXPECT_TRUE(sd->Ranked(0.9).empty());
}

TEST_F(SdTest, UnobservedPredicateHasZeroStats) {
  const PredicateId never = Pred(1);
  std::vector<PredicateLog> logs{MakeLog(true, {}), MakeLog(false, {})};
  auto sd = StatisticalDebugger::Analyze(catalog_, logs);
  ASSERT_TRUE(sd.ok());
  EXPECT_DOUBLE_EQ(sd->stats(never).precision(), 0.0);
  EXPECT_DOUBLE_EQ(sd->stats(never).recall(), 0.0);
  EXPECT_DOUBLE_EQ(sd->stats(never).f1(), 0.0);
  EXPECT_FALSE(sd->stats(never).fully_discriminative());
}

// Property sweep: for random log sets, fully-discriminative implies
// precision == recall == 1 and vice versa.
class SdPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SdPropertyTest, FullyDiscriminativeIffPerfectScores) {
  const int seed = GetParam();
  PredicateCatalog catalog;
  std::vector<PredicateId> preds;
  for (int i = 0; i < 12; ++i) {
    preds.push_back(catalog.Intern(
        Predicate{.kind = PredKind::kSynthetic, .occurrence = i}));
  }
  Rng rng(static_cast<uint64_t>(seed));
  std::vector<PredicateLog> logs;
  for (int r = 0; r < 20; ++r) {
    PredicateLog log;
    log.failed = rng.Bernoulli(0.5);
    for (PredicateId id : preds) {
      if (rng.Bernoulli(0.4)) log.observed[id] = {0, 0};
    }
    logs.push_back(std::move(log));
  }
  int failed = 0;
  for (const auto& log : logs) failed += log.failed ? 1 : 0;
  if (failed == 0 || failed == static_cast<int>(logs.size())) {
    GTEST_SKIP() << "degenerate outcome split";
  }
  auto sd = StatisticalDebugger::Analyze(catalog, logs);
  ASSERT_TRUE(sd.ok());
  for (PredicateId id : preds) {
    const auto& stats = sd->stats(id);
    const bool perfect = stats.precision() == 1.0 && stats.recall() == 1.0;
    EXPECT_EQ(stats.fully_discriminative(), perfect);
    EXPECT_GE(stats.precision(), 0.0);
    EXPECT_LE(stats.precision(), 1.0);
    EXPECT_GE(stats.recall(), 0.0);
    EXPECT_LE(stats.recall(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdPropertyTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace aid
