// Windowed batched linear scans: DiscoveryState sends a batched scan in
// windows of at most 16 undecided spans (a quota that cannot fund a window
// widens the batch to the whole remaining scan). On fig8 generator models
// the windowed scan must reach the unbatched serial scan's decisions --
// causal path, spurious set, rounds and history -- with executions
// accounted as rounds * trials + speculative executions, and a 4-replica
// ParallelTarget must be bit-identical to a 1-worker run.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/discovery_state.h"
#include "core/engine.h"
#include "exec/parallel_target.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

constexpr size_t kWindow = 16;
constexpr int kTrials = 3;

/// What one driven discovery dispatched and reported.
struct Driven {
  DiscoveryReport report;
  /// Spans per kBatch action, in dispatch order.
  std::vector<size_t> batch_sizes;
  /// Whether each kBatch action left a span unfunded.
  std::vector<bool> batch_short;
  /// Batches that sent a span some earlier batch already sent.
  int resent = 0;
};

/// Drives a DiscoveryState to its report -- the loop Run() is -- and
/// records the shape of every batch.
Result<Driven> Drive(const AcDag* dag, const EngineOptions& options,
                     InterventionTarget* target) {
  AID_RETURN_IF_ERROR(ValidateDiscoveryOptions(options));
  DiscoveryState state(dag, options, Rng(options.seed));
  Driven driven;
  std::vector<std::vector<PredicateId>> sent;
  while (true) {
    AID_ASSIGN_OR_RETURN(DiscoveryAction action, state.NextAction());
    if (action.kind == DiscoveryAction::Kind::kDone) break;
    if (action.kind == DiscoveryAction::Kind::kBatch) {
      driven.batch_sizes.push_back(action.spans.size());
      driven.batch_short.push_back(
          std::count(action.funded.begin(), action.funded.end(), 0) > 0);
      bool resent = false;
      for (const std::vector<PredicateId>& span : action.spans) {
        resent = resent ||
                 std::find(sent.begin(), sent.end(), span) != sent.end();
        sent.push_back(span);
      }
      if (resent) ++driven.resent;
    }
    AID_ASSIGN_OR_RETURN(ActionOutcome outcome,
                         ExecuteDiscoveryAction(state, action, target));
    AID_RETURN_IF_ERROR(state.Feed(action, outcome));
  }
  AID_ASSIGN_OR_RETURN(driven.report, state.Finalize());
  return driven;
}

std::string HistoryKey(const DiscoveryReport& report) {
  std::string key;
  for (const InterventionRound& round : report.history) {
    key += round.phase;
    key += round.failure_stopped ? '+' : '-';
    for (PredicateId id : round.intervened) key += std::to_string(id) + ',';
    key += ';';
  }
  return key;
}

struct Fig8Model {
  int max_threads;
  uint64_t seed;
};

std::string Name(const Fig8Model& m) {
  return "maxt" + std::to_string(m.max_threads) + "_s" +
         std::to_string(m.seed);
}

class WindowedScanTest : public ::testing::TestWithParam<Fig8Model> {};

TEST_P(WindowedScanTest, MatchesTheSerialScanInBoundedWindows) {
  SyntheticAppOptions generator;
  generator.max_threads = GetParam().max_threads;
  generator.seed = GetParam().seed;
  auto model = GenerateSyntheticApp(generator);
  ASSERT_TRUE(model.ok()) << model.status();
  auto dag = (*model)->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  EngineOptions serial = EngineOptions::Linear();
  serial.trials_per_intervention = kTrials;
  ModelTarget serial_target(model->get());
  auto expected = Drive(&*dag, serial, &serial_target);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(expected->batch_sizes.empty());

  EngineOptions batched = serial;
  batched.batched_dispatch = true;
  ModelTarget batched_target(model->get());
  auto one = Drive(&*dag, batched, &batched_target);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_FALSE(one->batch_sizes.empty());
  for (size_t size : one->batch_sizes) EXPECT_LE(size, kWindow);
  EXPECT_EQ(one->resent, 0) << "a span ran in two windows";

  const DiscoveryReport& s = expected->report;
  const DiscoveryReport& b = one->report;
  EXPECT_EQ(b.causal_path, s.causal_path);
  EXPECT_EQ(b.spurious, s.spurious);
  EXPECT_EQ(b.rounds, s.rounds);
  EXPECT_EQ(HistoryKey(b), HistoryKey(s));
  EXPECT_EQ(b.executions, b.rounds * kTrials + b.speculative_executions);

  EngineOptions parallel = batched;
  parallel.parallelism = 4;
  ModelTarget primary(model->get());
  auto pool = ParallelTarget::Create(&primary, parallel.parallelism);
  ASSERT_TRUE(pool.ok()) << pool.status();
  auto four = Drive(&*dag, parallel, pool->get());
  ASSERT_TRUE(four.ok()) << four.status();
  EXPECT_TRUE(SameDiscoveryOutcome(four->report, b));
  EXPECT_EQ(HistoryKey(four->report), HistoryKey(b));
  EXPECT_EQ(four->batch_sizes, one->batch_sizes);
}

/// The fig8 settings (MAXt 10/20/40), seeds 1-20.
std::vector<Fig8Model> Fig8Models() {
  std::vector<Fig8Model> models;
  for (int max_threads : {10, 20, 40}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      models.push_back({max_threads, seed});
    }
  }
  return models;
}

INSTANTIATE_TEST_SUITE_P(
    Fig8, WindowedScanTest, ::testing::ValuesIn(Fig8Models()),
    [](const ::testing::TestParamInfo<Fig8Model>& info) {
      return Name(info.param);
    });

TEST(WindowedScanQuotaTest, OnlyAnUnfundableWindowWidensTheBatch) {
  SyntheticAppOptions generator;
  generator.max_threads = 40;
  generator.seed = 11;
  auto model = GenerateSyntheticApp(generator);
  ASSERT_TRUE(model.ok()) << model.status();
  auto dag = (*model)->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  EngineOptions options = EngineOptions::Linear();
  options.batched_dispatch = true;
  options.trials_per_intervention = kTrials;
  options.budget.enabled = true;
  ModelTarget unlimited_target(model->get());
  auto unlimited = Drive(&*dag, options, &unlimited_target);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status();
  ASSERT_GE(unlimited->batch_sizes.size(), 3u);
  for (size_t size : unlimited->batch_sizes) EXPECT_LE(size, kWindow);

  // Half the unconstrained spend runs out mid-scan.
  options.budget.max_executions = unlimited->report.executions / 2;
  ModelTarget quota_target(model->get());
  auto quota = Drive(&*dag, options, &quota_target);
  ASSERT_TRUE(quota.ok()) << quota.status();
  EXPECT_TRUE(quota->report.budget_exhausted);
  EXPECT_LE(quota->report.executions, options.budget.max_executions);
  ASSERT_FALSE(quota->batch_sizes.empty());
  // Every batch but the last is a full-funded window; the last is the whole
  // remaining scan, funded in scan order up to the quota.
  const size_t last = quota->batch_sizes.size() - 1;
  for (size_t k = 0; k < last; ++k) {
    EXPECT_LE(quota->batch_sizes[k], kWindow) << "batch " << k;
    EXPECT_FALSE(quota->batch_short[k]) << "batch " << k;
  }
  EXPECT_TRUE(quota->batch_short[last]);
  EXPECT_GT(quota->batch_sizes[last], kWindow);
  EXPECT_EQ(quota->resent, 0);
}

}  // namespace
}  // namespace aid
