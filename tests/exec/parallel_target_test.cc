// Tests of exec::ParallelTarget: bit-identical parity with serial dispatch
// over model, flaky, and VM targets; exact executions accounting including
// the speculative-execution split of batched dispatch; and error transport
// from worker tasks.

#include "exec/parallel_target.h"

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "casestudies/case_study.h"
#include "core/engine.h"
#include "core/vm_target.h"
#include "exec/replicable.h"
#include "synth/flaky_target.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

/// Canonical form of a PredicateLog (sorted observations), so two logs can
/// be compared bit-for-bit despite the unordered map.
std::vector<std::tuple<PredicateId, Tick, Tick>> Canonical(
    const PredicateLog& log) {
  std::vector<std::tuple<PredicateId, Tick, Tick>> out;
  out.reserve(log.observed.size());
  for (const auto& [id, obs] : log.observed) {
    out.emplace_back(id, obs.start, obs.end);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameResult(const TargetRunResult& a, const TargetRunResult& b) {
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (size_t i = 0; i < a.logs.size(); ++i) {
    EXPECT_EQ(a.logs[i].failed, b.logs[i].failed) << "log " << i;
    EXPECT_EQ(Canonical(a.logs[i]), Canonical(b.logs[i])) << "log " << i;
  }
}

void ExpectSameReport(const DiscoveryReport& a, const DiscoveryReport& b) {
  EXPECT_EQ(a.causal_path, b.causal_path);
  EXPECT_EQ(a.spurious, b.spurious);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.speculative_executions, b.speculative_executions);
  EXPECT_EQ(a.path_is_chain, b.path_is_chain);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].intervened, b.history[i].intervened);
    EXPECT_EQ(a.history[i].failure_stopped, b.history[i].failure_stopped);
    EXPECT_EQ(a.history[i].phase, b.history[i].phase);
  }
}

std::unique_ptr<GroundTruthModel> MakeApp(uint64_t seed = 7) {
  SyntheticAppOptions options;
  options.max_threads = 12;
  options.seed = seed;
  auto model = GenerateSyntheticApp(options);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(*model);
}

InterventionSpans MakeSpans(const GroundTruthModel& model) {
  InterventionSpans spans;
  for (PredicateId id : model.predicates()) spans.push_back({id});
  spans.push_back({});  // the empty intervention
  return spans;
}

// --- parity with serial dispatch ------------------------------------------

TEST(ParallelTargetTest, BatchMatchesSerialOnModelTarget) {
  std::unique_ptr<GroundTruthModel> model = MakeApp();
  const InterventionSpans spans = MakeSpans(*model);

  ModelTarget serial(model.get());
  auto expected = serial.RunInterventionsBatch(spans, /*trials=*/3);
  ASSERT_TRUE(expected.ok()) << expected.status();

  ModelTarget primary(model.get());
  auto parallel = ParallelTarget::Create(&primary, /*parallelism=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  auto got = (*parallel)->RunInterventionsBatch(spans, /*trials=*/3);
  ASSERT_TRUE(got.ok()) << got.status();

  ASSERT_EQ(got->size(), expected->size());
  for (size_t i = 0; i < got->size(); ++i) {
    ExpectSameResult((*got)[i], (*expected)[i]);
  }
  EXPECT_EQ((*parallel)->executions(), serial.executions());
}

TEST(ParallelTargetTest, SingleSpanShardsTrialsAndMatchesSerial) {
  std::unique_ptr<GroundTruthModel> model = MakeApp();
  const std::vector<PredicateId> span{model->causal_chain().front()};

  ModelTarget serial(model.get());
  auto expected = serial.RunIntervened(span, /*trials=*/10);
  ASSERT_TRUE(expected.ok()) << expected.status();

  ModelTarget primary(model.get());
  auto parallel = ParallelTarget::Create(&primary, /*parallelism=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  auto got = (*parallel)->RunIntervened(span, /*trials=*/10);
  ASSERT_TRUE(got.ok()) << got.status();

  ExpectSameResult(*got, *expected);
  EXPECT_EQ((*parallel)->executions(), serial.executions());
}

TEST(ParallelTargetTest, FlakyTargetIsBitIdenticalToSerial) {
  std::unique_ptr<GroundTruthModel> model = MakeApp(/*seed=*/13);
  const InterventionSpans spans = MakeSpans(*model);

  FlakyModelTarget serial(model.get(), /*manifest_probability=*/0.6,
                          /*seed=*/11);
  auto expected = serial.RunInterventionsBatch(spans, /*trials=*/5);
  ASSERT_TRUE(expected.ok()) << expected.status();

  FlakyModelTarget primary(model.get(), /*manifest_probability=*/0.6,
                           /*seed=*/11);
  auto parallel = ParallelTarget::Create(&primary, /*parallelism=*/3);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  auto got = (*parallel)->RunInterventionsBatch(spans, /*trials=*/5);
  ASSERT_TRUE(got.ok()) << got.status();

  ASSERT_EQ(got->size(), expected->size());
  for (size_t i = 0; i < got->size(); ++i) {
    ExpectSameResult((*got)[i], (*expected)[i]);
  }
  EXPECT_EQ((*parallel)->executions(), serial.executions());
}

TEST(ParallelTargetTest, FlakySeekTrialIsPositional) {
  GroundTruthModel model;
  model.AddFailure();
  PredicateId p = model.AddPredicate(0);
  model.SetCausalChain({p});

  FlakyModelTarget a(&model, /*manifest_probability=*/0.5, /*seed=*/42);
  FlakyModelTarget b(&model, /*manifest_probability=*/0.5, /*seed=*/42);

  // Whatever order trials run in, equal positions flip equal coins.
  a.SeekTrial(100);
  auto at_100 = a.RunIntervened({}, 16);
  ASSERT_TRUE(at_100.ok());
  b.SeekTrial(9000);
  auto detour = b.RunIntervened({}, 4);
  ASSERT_TRUE(detour.ok());
  b.SeekTrial(100);
  auto again = b.RunIntervened({}, 16);
  ASSERT_TRUE(again.ok());
  ExpectSameResult(*again, *at_100);
}

TEST(ParallelTargetTest, WrappingMidStreamContinuesTheSerialPositions) {
  GroundTruthModel model;
  model.AddFailure();
  PredicateId p = model.AddPredicate(0);
  model.SetCausalChain({p});

  // Reference: one uninterrupted serial run.
  FlakyModelTarget serial(&model, /*manifest_probability=*/0.5, /*seed=*/9);
  auto serial_head = serial.RunIntervened({}, 7);
  ASSERT_TRUE(serial_head.ok());
  auto serial_tail = serial.RunIntervened({}, 12);
  ASSERT_TRUE(serial_tail.ok());

  // Same target run serially, then wrapped in a pool mid-stream: dispatch
  // must continue at the primary's trial position, not restart at 0.
  FlakyModelTarget primary(&model, /*manifest_probability=*/0.5, /*seed=*/9);
  auto head = primary.RunIntervened({}, 7);
  ASSERT_TRUE(head.ok());
  ExpectSameResult(*head, *serial_head);
  auto parallel = ParallelTarget::Create(&primary, /*parallelism=*/3);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  auto tail = (*parallel)->RunIntervened({}, 12);
  ASSERT_TRUE(tail.ok());
  ExpectSameResult(*tail, *serial_tail);
  EXPECT_EQ((*parallel)->executions(), serial.executions());
}

// --- whole-engine determinism (the satellite acceptance test) -------------

class ParallelDeterminismTest : public ::testing::TestWithParam<EngineOptions> {
};

TEST_P(ParallelDeterminismTest, ParallelReportEqualsSerialReport) {
  std::unique_ptr<GroundTruthModel> model = MakeApp(/*seed=*/21);
  auto dag = model->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  EngineOptions options = GetParam();
  options.trials_per_intervention = 2;

  ModelTarget serial(model.get());
  options.parallelism = 1;
  CausalPathDiscovery serial_discovery(&*dag, &serial, options);
  auto serial_report = serial_discovery.Run();
  ASSERT_TRUE(serial_report.ok()) << serial_report.status();

  ModelTarget primary(model.get());
  auto parallel = ParallelTarget::Create(&primary, /*parallelism=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  options.parallelism = 4;
  CausalPathDiscovery parallel_discovery(&*dag, parallel->get(), options);
  auto parallel_report = parallel_discovery.Run();
  ASSERT_TRUE(parallel_report.ok()) << parallel_report.status();

  ExpectSameReport(*parallel_report, *serial_report);
  std::vector<PredicateId> truth = model->causal_chain();
  truth.push_back(model->failure());
  EXPECT_EQ(parallel_report->causal_path, truth);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, ParallelDeterminismTest,
    ::testing::Values(EngineOptions::Aid(),
                      EngineOptions::AidNoPredicatePruning(),
                      EngineOptions::AidNoPruning(), EngineOptions::Tagt()));

TEST(ParallelTargetTest, VmCaseStudyReportMatchesSerial) {
  auto study = MakeKafkaUseAfterFree();
  ASSERT_TRUE(study.ok()) << study.status();

  auto make_report = [&](int parallelism) -> Result<DiscoveryReport> {
    AID_ASSIGN_OR_RETURN(std::unique_ptr<VmTarget> vm,
                         VmTarget::Create(&study->program,
                                          study->target_options));
    AID_ASSIGN_OR_RETURN(AcDag dag, vm->BuildAcDag());
    EngineOptions options = EngineOptions::Linear();
    options.trials_per_intervention = 3;
    options.batched_dispatch = true;
    options.parallelism = parallelism;
    InterventionTarget* target = vm.get();
    std::unique_ptr<ParallelTarget> pool;
    if (parallelism > 1) {
      AID_ASSIGN_OR_RETURN(pool, ParallelTarget::Create(vm.get(),
                                                        parallelism));
      target = pool.get();
    }
    CausalPathDiscovery discovery(&dag, target, options);
    return discovery.Run();
  };

  auto serial = make_report(1);
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto parallel = make_report(4);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectSameReport(*parallel, *serial);
  EXPECT_TRUE(parallel->has_root_cause());
}

// --- executions accounting ------------------------------------------------

TEST(ParallelTargetTest, SpeculativeExecutionsAreReportedDistinctly) {
  std::unique_ptr<GroundTruthModel> model = MakeApp(/*seed=*/5);
  auto dag = model->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();
  const int trials = 3;

  // Serial linear scan skips pruned predicates: nothing is speculative.
  ModelTarget serial(model.get());
  EngineOptions serial_options = EngineOptions::Linear();
  serial_options.trials_per_intervention = trials;
  CausalPathDiscovery serial_discovery(&*dag, &serial, serial_options);
  auto serial_report = serial_discovery.Run();
  ASSERT_TRUE(serial_report.ok()) << serial_report.status();
  EXPECT_EQ(serial_report->speculative_executions, 0);
  EXPECT_EQ(serial_report->executions, serial_report->rounds * trials);

  // Parallel batched dispatch executes the scan a window at a time; spans
  // that pruning answered before consumption are speculative -- counted in executions,
  // reported distinctly, and excluded from rounds.
  ModelTarget primary(model.get());
  auto parallel = ParallelTarget::Create(&primary, /*parallelism=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EngineOptions batched = serial_options;
  batched.parallelism = 4;
  CausalPathDiscovery batched_discovery(&*dag, parallel->get(), batched);
  auto batched_report = batched_discovery.Run();
  ASSERT_TRUE(batched_report.ok()) << batched_report.status();
  EXPECT_GT(batched_report->speculative_executions, 0);
  EXPECT_EQ(batched_report->executions,
            batched_report->rounds * trials +
                batched_report->speculative_executions);
  // Target-side accounting agrees with the engine's delta.
  EXPECT_EQ((*parallel)->executions(), batched_report->executions);
  // The decisions are unchanged by speculation.
  EXPECT_EQ(batched_report->causal_path, serial_report->causal_path);
  EXPECT_EQ(batched_report->spurious, serial_report->spurious);
}

TEST(ParallelTargetTest, ExecutionsIncludeThePrimaryHistory) {
  std::unique_ptr<GroundTruthModel> model = MakeApp();
  ModelTarget primary(model.get());
  auto warmup = primary.RunIntervened({}, 5);  // e.g. an observation phase
  ASSERT_TRUE(warmup.ok());
  auto parallel = ParallelTarget::Create(&primary, /*parallelism=*/2);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ((*parallel)->executions(), 5);
  auto run = (*parallel)->RunIntervened({}, 4);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ((*parallel)->executions(), 9);
}

// --- error transport ------------------------------------------------------

TEST(ParallelTargetTest, WorkerErrorsPropagateFromTheBatch) {
  std::unique_ptr<GroundTruthModel> model = MakeApp();

  class Failing : public ReplicableTarget {
   public:
    explicit Failing(const GroundTruthModel* model)
        : model_(model), inner_(model) {}
    Result<TargetRunResult> RunIntervened(
        const std::vector<PredicateId>& intervened, int trials) override {
      if (!intervened.empty() && intervened.front() == model_->failure()) {
        return Status::Internal("cannot intervene on F");
      }
      return inner_.RunIntervened(intervened, trials);
    }
    Result<std::unique_ptr<ReplicableTarget>> Clone() const override {
      return std::unique_ptr<ReplicableTarget>(new Failing(model_));
    }
    uint64_t executions() const override { return inner_.executions(); }

   private:
    const GroundTruthModel* model_;
    ModelTarget inner_;
  };

  Failing primary(model.get());
  auto parallel = ParallelTarget::Create(&primary, /*parallelism=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  InterventionSpans spans = MakeSpans(*model);
  spans.push_back({model->failure()});  // the poisoned span
  auto result = (*parallel)->RunInterventionsBatch(spans, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(ParallelTargetTest, RejectsInvalidConfiguration) {
  std::unique_ptr<GroundTruthModel> model = MakeApp();
  ModelTarget primary(model.get());
  EXPECT_FALSE(ParallelTarget::Create(nullptr, 2).ok());
  EXPECT_FALSE(ParallelTarget::Create(&primary, 0).ok());
  auto one = ParallelTarget::Create(&primary, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ((*one)->parallelism(), 1);
}

}  // namespace
}  // namespace aid
