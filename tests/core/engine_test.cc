// Tests of the AID intervention engine (Algorithms 1-3, Definition 2),
// driven through ground-truth model targets, including an exact replay of
// the paper's Figure 4 walkthrough.

#include "core/engine.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

/// The paper's Figure 4: temporal chain P1..P3, a junction into branches
/// {P4,P5,P6} and {P7 -> {P8, P9} -> P11}, P10 merging below {P6, P8, P9}.
/// True causal path P1 -> P2 -> P11 -> F; P3 and P7 spontaneous; P10 truly
/// caused by P3 and P11 together (it vanishes when either is repaired).
struct Figure4 {
  GroundTruthModel model;
  PredicateId p[12];

  Figure4() {
    model.AddFailure();
    for (int i = 1; i <= 11; ++i) p[i] = model.AddPredicate(i);
    auto edge = [&](int a, int b) { model.AddTemporalEdge(p[a], p[b]); };
    edge(1, 2);
    edge(2, 3);
    edge(3, 4);
    edge(4, 5);
    edge(5, 6);
    edge(3, 7);
    edge(7, 8);
    edge(7, 9);
    edge(8, 11);
    edge(9, 11);
    edge(6, 10);
    edge(8, 10);
    edge(9, 10);
    model.SetCausalChain({p[1], p[2], p[11]});
    model.SetTrueParents(p[10], {p[3], p[11]});
  }
};

std::vector<PredicateId> Sorted(std::vector<PredicateId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(EngineFigure4Test, ReproducesThePaperWalkthrough) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->size(), 12u);

  ModelTarget target(&fig.model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());

  // The paper's walkthrough takes 8 interventions (vs 11 naively).
  EXPECT_EQ(report->rounds, 8);
  EXPECT_EQ(report->causal_path,
            (std::vector<PredicateId>{fig.p[1], fig.p[2], fig.p[11],
                                      fig.model.failure()}));
  EXPECT_EQ(report->root_cause(), fig.p[1]);
  // Everything else was proven spurious.
  EXPECT_EQ(report->spurious.size(), 8u);
}

TEST(EngineFigure4Test, NaiveTagtNeedsMoreInterventions) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  // Any single random order can get lucky; compare the worst over several
  // seeds (the paper's Figure 7 reports TAGT's worst case).
  uint64_t worst = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ModelTarget target(&fig.model);
    EngineOptions options = EngineOptions::Tagt();
    options.seed = seed;
    CausalPathDiscovery discovery(&*dag, &target, options);
    auto report = discovery.Run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(Sorted(report->causal_path),
              Sorted({fig.p[1], fig.p[2], fig.p[11], fig.model.failure()}));
    worst = std::max(worst, report->rounds);
  }
  EXPECT_GT(worst, 8);
}

TEST(EngineTest, SingleCausalPredicateOnChain) {
  GroundTruthModel model;
  model.AddFailure();
  std::vector<PredicateId> chain;
  for (int i = 0; i < 6; ++i) chain.push_back(model.AddPredicate(i));
  for (int i = 0; i + 1 < 6; ++i) {
    model.AddTemporalEdge(chain[static_cast<size_t>(i)],
                          chain[static_cast<size_t>(i) + 1]);
  }
  model.SetCausalChain({chain[3]});  // only one true cause

  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->causal_path,
            (std::vector<PredicateId>{chain[3], model.failure()}));
  EXPECT_EQ(report->spurious.size(), 5u);
}

TEST(EngineTest, WholeChainCausal) {
  GroundTruthModel model;
  model.AddFailure();
  std::vector<PredicateId> chain;
  for (int i = 0; i < 5; ++i) chain.push_back(model.AddPredicate(i));
  for (int i = 0; i + 1 < 5; ++i) {
    model.AddTemporalEdge(chain[static_cast<size_t>(i)],
                          chain[static_cast<size_t>(i) + 1]);
  }
  model.SetCausalChain(chain);

  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  std::vector<PredicateId> expected = chain;
  expected.push_back(model.failure());
  EXPECT_EQ(report->causal_path, expected);
  EXPECT_TRUE(report->spurious.empty());
}

TEST(EngineTest, EmptyDagYieldsTrivialPath) {
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId only = model.AddPredicate(0);
  model.SetCausalChain({only});
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->causal_path.back(), model.failure());
  EXPECT_EQ(report->rounds, 1);  // one intervention proves the single node
}

TEST(EngineTest, InterventionalPruningSparesAncestorsOfIntervened) {
  // Chain c0 -> c1 (both causal) plus a symptom s of c0 attached mid-chain.
  // Intervening on c1 stops the failure while c0 and s still occur; the
  // ancestor guard must keep c0 (an ancestor of c1) undecided while s (not
  // an ancestor) is pruned.
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId c0 = model.AddPredicate(0);
  const PredicateId c1 = model.AddPredicate(1);
  const PredicateId s = model.AddPredicate(2);  // symptom after c1
  model.AddTemporalEdge(c0, c1);
  model.AddTemporalEdge(c1, s);
  model.SetCausalChain({c0, c1});
  model.SetTrueParents(s, {c0});

  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->causal_path,
            (std::vector<PredicateId>{c0, c1, model.failure()}));
  EXPECT_EQ(report->spurious, (std::vector<PredicateId>{s}));
}

TEST(EngineTest, ReportsHistoryAndExecutions) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  ModelTarget target(&fig.model);
  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 2;
  CausalPathDiscovery discovery(&*dag, &target, options);
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(static_cast<int>(report->history.size()), report->rounds);
  EXPECT_EQ(report->executions, report->rounds * 2);
  for (const auto& round : report->history) {
    EXPECT_FALSE(round.intervened.empty());
    EXPECT_TRUE(round.phase == "branch" || round.phase == "giwp");
  }
}

TEST(EngineTest, DeterministicAcrossRuns) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  for (int i = 0; i < 3; ++i) {
    ModelTarget target(&fig.model);
    CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
    auto report = discovery.Run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->rounds, 8);
  }
}

TEST(EngineTest, TagtSeedChangesGroupingButNotAnswer) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  std::vector<int> rounds;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ModelTarget target(&fig.model);
    EngineOptions options = EngineOptions::Tagt();
    options.seed = seed;
    CausalPathDiscovery discovery(&*dag, &target, options);
    auto report = discovery.Run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(Sorted(report->causal_path),
              Sorted({fig.p[1], fig.p[2], fig.p[11], fig.model.failure()}));
    rounds.push_back(report->rounds);
  }
  // Different random orders generally produce different round counts.
  EXPECT_GT(*std::max_element(rounds.begin(), rounds.end()),
            *std::min_element(rounds.begin(), rounds.end()) - 1);
}

// Engine-variant property sweep over generated applications: all four
// variants must find exactly the true causal chain, and the variants with
// more machinery must not be slower on average.
class EngineVariantsTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineVariantsTest, AllVariantsFindTheTruth) {
  SyntheticAppOptions options;
  options.max_threads = 8;
  options.seed = static_cast<uint64_t>(GetParam());
  auto model = GenerateSyntheticApp(options);
  ASSERT_TRUE(model.ok());
  auto dag = (*model)->BuildAcDag();
  ASSERT_TRUE(dag.ok());

  std::vector<PredicateId> expected = (*model)->causal_chain();
  expected.push_back((*model)->failure());
  expected = Sorted(expected);

  const EngineOptions variants[4] = {
      EngineOptions::Aid(), EngineOptions::AidNoPredicatePruning(),
      EngineOptions::AidNoPruning(), EngineOptions::Tagt()};
  int rounds[4] = {};
  for (int v = 0; v < 4; ++v) {
    ModelTarget target(model->get());
    CausalPathDiscovery discovery(&*dag, &target, variants[v]);
    auto report = discovery.Run();
    ASSERT_TRUE(report.ok()) << "variant " << v;
    EXPECT_EQ(Sorted(report->causal_path), expected) << "variant " << v;
    rounds[v] = report->rounds;
  }
  // Per-instance the orderings can wobble by a few rounds (pruning shifts
  // the halving boundaries); the strict average-ordering claim is asserted
  // in VariantOrderingHoldsOnAverage below.
  EXPECT_LE(rounds[0], rounds[2] + 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVariantsTest, ::testing::Range(100, 130));

TEST(EngineVariantsAggregateTest, VariantOrderingHoldsOnAverage) {
  // The paper's Figure 8 claim: on average over many synthetic apps,
  // AID <= AID-P <= AID-P-B <= TAGT in intervention rounds.
  const EngineOptions variants[4] = {
      EngineOptions::Aid(), EngineOptions::AidNoPredicatePruning(),
      EngineOptions::AidNoPruning(), EngineOptions::Tagt()};
  long totals[4] = {};
  for (int seed = 0; seed < 40; ++seed) {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = 5000 + static_cast<uint64_t>(seed);
    auto model = GenerateSyntheticApp(options);
    ASSERT_TRUE(model.ok());
    auto dag = (*model)->BuildAcDag();
    ASSERT_TRUE(dag.ok());
    for (int v = 0; v < 4; ++v) {
      ModelTarget target(model->get());
      EngineOptions engine = variants[v];
      engine.seed = static_cast<uint64_t>(seed) + 17;
      CausalPathDiscovery discovery(&*dag, &target, engine);
      auto report = discovery.Run();
      ASSERT_TRUE(report.ok());
      totals[v] += report->rounds;
    }
  }
  EXPECT_LT(totals[0], totals[1]);  // predicate pruning helps
  EXPECT_LT(totals[1], totals[2]);  // branch pruning helps
  EXPECT_LE(totals[2], totals[3]);  // topological order helps
}

// --- DiscoveryReport root-cause contract ----------------------------------

TEST(DiscoveryReportTest, EmptyReportHasNoRootCause) {
  DiscoveryReport report;
  EXPECT_FALSE(report.has_root_cause());
  EXPECT_EQ(report.root_cause(), kInvalidPredicate);
}

TEST(DiscoveryReportTest, FailureOnlyPathHasNoRootCause) {
  // The engine always appends F; a path of just <F> means every candidate
  // was proven spurious.
  DiscoveryReport report;
  report.causal_path = {7};
  EXPECT_FALSE(report.has_root_cause());
  EXPECT_EQ(report.root_cause(), kInvalidPredicate);
}

TEST(DiscoveryReportTest, ShortestRealPathReportsItsRootCause) {
  DiscoveryReport report;
  report.causal_path = {3, 7};  // <C0, F>
  EXPECT_TRUE(report.has_root_cause());
  EXPECT_EQ(report.root_cause(), 3);
}

TEST(DiscoveryReportTest, EngineReportsNoRootCauseWhenFailureIsSpontaneous) {
  // Predicates co-occur with a failure that none of them causes (the
  // failure fires regardless of interventions): the engine must prove them
  // all spurious and report an <F>-only path rather than invent a cause.
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(1);
  const PredicateId b = model.AddPredicate(2);
  model.AddTemporalEdge(a, b);
  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  ModelTarget target(&model);
  CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
  auto report = discovery.Run();
  ASSERT_TRUE(report.ok());

  EXPECT_FALSE(report->has_root_cause());
  EXPECT_EQ(report->root_cause(), kInvalidPredicate);
  EXPECT_EQ(report->causal_path,
            (std::vector<PredicateId>{model.failure()}));
  EXPECT_EQ(Sorted(report->spurious), Sorted({a, b}));
}

// --- batched linear-scan dispatch -----------------------------------------

TEST(EngineBatchedDispatchTest, BatchedLinearScanMatchesSerial) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  EngineOptions serial = EngineOptions::Linear();
  ModelTarget serial_target(&fig.model);
  CausalPathDiscovery serial_discovery(&*dag, &serial_target, serial);
  auto serial_report = serial_discovery.Run();
  ASSERT_TRUE(serial_report.ok());

  EngineOptions batched = EngineOptions::Linear();
  batched.batched_dispatch = true;
  ModelTarget batched_target(&fig.model);
  CausalPathDiscovery batched_discovery(&*dag, &batched_target, batched);
  auto batched_report = batched_discovery.Run();
  ASSERT_TRUE(batched_report.ok());

  EXPECT_EQ(batched_report->causal_path, serial_report->causal_path);
  EXPECT_EQ(batched_report->spurious, serial_report->spurious);
  EXPECT_EQ(batched_report->rounds, serial_report->rounds);
  // Batched dispatch executes each window of the scan speculatively;
  // pruning skips show up as extra executions, never as different
  // decisions.
  EXPECT_GE(batched_report->executions, serial_report->executions);
}

}  // namespace
}  // namespace aid
