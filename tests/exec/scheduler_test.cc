// Tests of the latency-aware work-stealing scheduler (exec/scheduler.h):
// bit-identical reports vs serial dispatch at 1/2/4/8 workers with one
// replica artificially 10x slower, steal-counter accounting, fail-fast
// error-path accounting (the serial contract), chunking/validation units,
// and parity between the static and work-stealing policies.

#include "exec/scheduler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/parallel_target.h"
#include "exec/replicable.h"
#include "synth/flaky_target.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

std::unique_ptr<GroundTruthModel> MakeApp(uint64_t seed = 7) {
  SyntheticAppOptions options;
  options.max_threads = 12;
  options.seed = seed;
  auto model = GenerateSyntheticApp(options);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(*model);
}

/// A flaky target whose FIRST clone is the pool's straggler: every trial on
/// it charges `slow_per_trial` of wall clock. Positional nondeterminism is
/// untouched (the delay happens outside the flip), so however the scheduler
/// routes around the straggler, the bytes cannot change.
///
/// With `gate_start`, the fast clones' RunIntervened calls wait until the
/// straggler has entered its first one, so the straggler always runs at
/// least one chunk however late its worker thread starts. Only for rounds
/// that deal the straggler a chunk: the even initial deal of a
/// multi-chunk round with no latency measured yet always does.
class HeteroTarget : public ReplicableTarget {
 public:
  HeteroTarget(const GroundTruthModel* model, double manifest_probability,
               uint64_t seed, std::chrono::microseconds slow_per_trial,
               bool gate_start = false)
      : inner_(model, manifest_probability, seed),
        model_(model),
        manifest_probability_(manifest_probability),
        seed_(seed),
        slow_per_trial_(slow_per_trial),
        clones_(std::make_shared<std::atomic<int>>(0)),
        gate_(gate_start ? std::make_shared<StartGate>() : nullptr) {}

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override {
    if (is_clone_ && gate_ != nullptr) {
      std::unique_lock<std::mutex> lock(gate_->mu);
      if (delay_.count() > 0) {
        gate_->open = true;
        gate_->cv.notify_all();
      } else {
        gate_->cv.wait(lock, [this] { return gate_->open; });
      }
    }
    if (delay_.count() > 0) {
      std::this_thread::sleep_for(delay_ * (trials < 1 ? 1 : trials));
    }
    return inner_.RunIntervened(intervened, trials);
  }

  Result<std::unique_ptr<ReplicableTarget>> Clone() const override {
    auto clone = std::unique_ptr<HeteroTarget>(new HeteroTarget(
        model_, manifest_probability_, seed_, slow_per_trial_));
    clone->clones_ = clones_;
    clone->gate_ = gate_;
    clone->is_clone_ = true;
    clone->delay_ = clones_->fetch_add(1) == 0
                        ? slow_per_trial_
                        : std::chrono::microseconds{0};
    clone->inner_.SeekTrial(inner_.trial_position());
    return std::unique_ptr<ReplicableTarget>(std::move(clone));
  }

  void SeekTrial(uint64_t trial_index) override {
    inner_.SeekTrial(trial_index);
  }
  uint64_t trial_position() const override { return inner_.trial_position(); }
  uint64_t executions() const override { return inner_.executions(); }

 private:
  struct StartGate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
  };

  FlakyModelTarget inner_;
  const GroundTruthModel* model_;
  double manifest_probability_;
  uint64_t seed_;
  std::chrono::microseconds slow_per_trial_;
  std::chrono::microseconds delay_{0};
  std::shared_ptr<std::atomic<int>> clones_;
  std::shared_ptr<StartGate> gate_;
  bool is_clone_ = false;
};

// --- validation -----------------------------------------------------------

TEST(SchedulerOptionsTest, ValidatesKnobRanges) {
  EXPECT_TRUE(ValidateSchedulerOptions({}).ok());
  SchedulerOptions options;
  options.chunks_per_worker = 0;
  EXPECT_EQ(ValidateSchedulerOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.min_chunk_trials = 0;
  EXPECT_EQ(ValidateSchedulerOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.ewma_alpha = 0.0;
  EXPECT_EQ(ValidateSchedulerOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.ewma_alpha = 1.5;
  EXPECT_EQ(ValidateSchedulerOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.ewma_alpha = 1.0;  // boundary is legal (latest sample only)
  EXPECT_TRUE(ValidateSchedulerOptions(options).ok());
}

// --- chunking units -------------------------------------------------------

TEST(ChunkSchedulerTest, ChunksCoverEverySerialPositionExactlyOnce) {
  ChunkScheduler scheduler({}, /*replica_count=*/4);
  InterventionSpans spans(5);
  const int trials = 7;
  const uint64_t base = 100;
  const auto chunks = scheduler.MakeChunks(spans, trials, base);
  // Every (span, trial) position appears exactly once, at the serial
  // offset, and chunks never cross span boundaries.
  std::vector<int> seen(spans.size() * trials, 0);
  for (const auto& chunk : chunks) {
    ASSERT_NE(chunk.span, nullptr);
    const size_t span_index = chunk.result_index;
    EXPECT_EQ(chunk.span, &spans[span_index]);
    EXPECT_EQ(chunk.first_trial,
              base + span_index * trials + chunk.log_offset);
    for (int t = 0; t < chunk.trials; ++t) {
      ++seen[span_index * trials + chunk.log_offset + t];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ChunkSchedulerTest, StaticPolicyCutsOneSharePerWorker) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kStatic;
  ChunkScheduler scheduler(options, /*replica_count=*/4);
  InterventionSpans one_span(1);
  const auto chunks = scheduler.MakeChunks(one_span, /*trials=*/100, 0);
  EXPECT_EQ(chunks.size(), 4u);  // ceil(100/4) = 25 trials per chunk
  for (const auto& chunk : chunks) EXPECT_EQ(chunk.trials, 25);
}

TEST(ChunkSchedulerTest, WorkStealingCutsFinerChunks) {
  SchedulerOptions options;
  options.chunks_per_worker = 4;
  ChunkScheduler scheduler(options, /*replica_count=*/4);
  InterventionSpans one_span(1);
  const auto chunks = scheduler.MakeChunks(one_span, /*trials=*/160, 0);
  EXPECT_EQ(chunks.size(), 16u);  // 4 workers x 4 chunks each
}

TEST(ChunkSchedulerTest, MinChunkTrialsFloorsTheGranularity) {
  SchedulerOptions options;
  options.min_chunk_trials = 50;
  ChunkScheduler scheduler(options, /*replica_count=*/8);
  InterventionSpans one_span(1);
  const auto chunks = scheduler.MakeChunks(one_span, /*trials=*/100, 0);
  EXPECT_EQ(chunks.size(), 2u);
}

// --- whole-engine determinism with a straggler ----------------------------

void ExpectSameReport(const DiscoveryReport& a, const DiscoveryReport& b) {
  EXPECT_TRUE(SameDiscoveryOutcome(a, b));
  EXPECT_EQ(a.causal_path, b.causal_path);
  EXPECT_EQ(a.spurious, b.spurious);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.speculative_executions, b.speculative_executions);
  EXPECT_EQ(a.path_is_chain, b.path_is_chain);
}

TEST(SchedulerDeterminismTest, SlowReplicaReportsAreBitIdenticalToSerial) {
  std::unique_ptr<GroundTruthModel> model = MakeApp(/*seed=*/21);
  auto dag = model->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  EngineOptions options = EngineOptions::Linear();
  options.trials_per_intervention = 3;
  options.batched_dispatch = true;

  // Serial reference (no pool at all).
  FlakyModelTarget serial(model.get(), /*manifest_probability=*/0.7,
                          /*seed=*/11);
  CausalPathDiscovery serial_discovery(&*dag, &serial, options);
  auto serial_report = serial_discovery.Run();
  ASSERT_TRUE(serial_report.ok()) << serial_report.status();

  for (int workers : {1, 2, 4, 8}) {
    // Replica 0 is ~10x a normal trial's cost on this machine: plenty to
    // force steals, far too little to slow the suite.
    HeteroTarget primary(model.get(), 0.7, 11,
                         std::chrono::microseconds(300));
    auto pool = ParallelTarget::Create(&primary, workers);
    ASSERT_TRUE(pool.ok()) << pool.status();
    EngineOptions parallel = options;
    parallel.parallelism = workers;
    CausalPathDiscovery discovery(&*dag, pool->get(), parallel);
    auto report = discovery.Run();
    ASSERT_TRUE(report.ok()) << report.status();
    ExpectSameReport(*report, *serial_report);

    // The dispatch accounting is exact: per-replica trials sum to the
    // executions the engine billed, whatever the steal schedule did.
    ASSERT_EQ(report->replica_trials.size(),
              static_cast<size_t>(workers));
    const uint64_t dispatched =
        std::accumulate(report->replica_trials.begin(),
                        report->replica_trials.end(), uint64_t{0});
    EXPECT_EQ(dispatched, report->executions);
  }
}

TEST(SchedulerDeterminismTest, StaticAndStealingPoliciesAgreeByteForByte) {
  std::unique_ptr<GroundTruthModel> model = MakeApp(/*seed=*/5);
  auto dag = model->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  EngineOptions options = EngineOptions::Linear();
  options.trials_per_intervention = 2;
  options.batched_dispatch = true;
  options.parallelism = 4;

  auto run = [&](SchedulerPolicy policy) -> Result<DiscoveryReport> {
    FlakyModelTarget primary(model.get(), 0.6, 3);
    SchedulerOptions scheduler;
    scheduler.policy = policy;
    AID_ASSIGN_OR_RETURN(std::unique_ptr<ParallelTarget> pool,
                         ParallelTarget::Create(&primary, 4, scheduler));
    CausalPathDiscovery discovery(&*dag, pool.get(), options);
    return discovery.Run();
  };

  auto stealing = run(SchedulerPolicy::kWorkStealing);
  ASSERT_TRUE(stealing.ok()) << stealing.status();
  auto fixed = run(SchedulerPolicy::kStatic);
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  ExpectSameReport(*stealing, *fixed);
}

// --- steal accounting -----------------------------------------------------

TEST(SchedulerStealTest, FastReplicasStealFromTheStraggler) {
  GroundTruthModel model;
  model.AddFailure();
  PredicateId p = model.AddPredicate(0);
  model.SetCausalChain({p});

  // 2 workers, replica 0 is the straggler, plenty of chunks: worker 1 must
  // drain chunks queued behind replica 0. The start gate holds worker 1
  // until the straggler has begun its first chunk, so the straggler always
  // gets a latency sample however the two threads are scheduled.
  HeteroTarget primary(&model, /*manifest_probability=*/0.5, /*seed=*/9,
                       std::chrono::microseconds(500), /*gate_start=*/true);
  SchedulerOptions scheduler;
  scheduler.chunks_per_worker = 8;
  auto pool = ParallelTarget::Create(&primary, 2, scheduler);
  ASSERT_TRUE(pool.ok()) << pool.status();

  // Serial reference for the bytes.
  FlakyModelTarget serial(&model, 0.5, 9);
  auto expected = serial.RunIntervened({}, 64);
  ASSERT_TRUE(expected.ok());

  auto got = (*pool)->RunIntervened({}, 64);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->logs.size(), expected->logs.size());
  for (size_t i = 0; i < got->logs.size(); ++i) {
    EXPECT_EQ(got->logs[i].failed, expected->logs[i].failed) << "log " << i;
  }

  const SubstrateCounters stats = (*pool)->counters();
  ASSERT_EQ(stats.replica_trials.size(), 2u);
  EXPECT_EQ(stats.replica_trials[0] + stats.replica_trials[1], 64u);
  EXPECT_GE(stats.steals, 1u);
  // The fast replica carried more than the straggler.
  EXPECT_GT(stats.replica_trials[1], stats.replica_trials[0]);
  // Both replicas have latency estimates now, and the straggler's is
  // visibly larger.
  EXPECT_GT((*pool)->replica_ewma_micros(0), 0u);
  EXPECT_GT((*pool)->replica_ewma_micros(1), 0u);
  EXPECT_GT((*pool)->replica_ewma_micros(0),
            (*pool)->replica_ewma_micros(1));
}

TEST(SchedulerStealTest, StaticPolicyNeverSteals) {
  GroundTruthModel model;
  model.AddFailure();
  PredicateId p = model.AddPredicate(0);
  model.SetCausalChain({p});

  HeteroTarget primary(&model, 0.5, 9, std::chrono::microseconds(300));
  SchedulerOptions scheduler;
  scheduler.policy = SchedulerPolicy::kStatic;
  auto pool = ParallelTarget::Create(&primary, 2, scheduler);
  ASSERT_TRUE(pool.ok()) << pool.status();
  auto got = (*pool)->RunIntervened({}, 32);
  ASSERT_TRUE(got.ok()) << got.status();

  const SubstrateCounters stats = (*pool)->counters();
  EXPECT_EQ(stats.steals, 0u);
  // The fixed contiguous split: both replicas got exactly half.
  ASSERT_EQ(stats.replica_trials.size(), 2u);
  EXPECT_EQ(stats.replica_trials[0], 16u);
  EXPECT_EQ(stats.replica_trials[1], 16u);
}

// --- fail-fast error paths (the serial accounting contract) ---------------

/// Fails any span intervening on the model's failure predicate; everything
/// else passes through. SeekTrial/positions pass through too, so cursor
/// behavior on error paths is observable.
class PoisonTarget : public ReplicableTarget {
 public:
  PoisonTarget(const GroundTruthModel* model, double p, uint64_t seed)
      : model_(model), p_(p), seed_(seed), inner_(model, p, seed) {}

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override {
    if (!intervened.empty() && intervened.front() == model_->failure()) {
      return Status::Internal("cannot intervene on F");
    }
    return inner_.RunIntervened(intervened, trials);
  }
  Result<std::unique_ptr<ReplicableTarget>> Clone() const override {
    auto clone = std::unique_ptr<PoisonTarget>(
        new PoisonTarget(model_, p_, seed_));
    clone->inner_.SeekTrial(inner_.trial_position());
    return std::unique_ptr<ReplicableTarget>(std::move(clone));
  }
  void SeekTrial(uint64_t trial_index) override {
    inner_.SeekTrial(trial_index);
  }
  uint64_t trial_position() const override { return inner_.trial_position(); }
  uint64_t executions() const override { return inner_.executions(); }

 private:
  const GroundTruthModel* model_;
  double p_;
  uint64_t seed_;
  FlakyModelTarget inner_;
};

TEST(SchedulerFailFastTest, MidBatchFailureCancelsUnleasedChunks) {
  std::unique_ptr<GroundTruthModel> model = MakeApp(/*seed=*/3);

  // One worker makes execution order deterministic: chunks run serially,
  // so everything after the poisoned span must be cancelled, never run,
  // and never billed -- exactly what serial dispatch would have done.
  PoisonTarget primary(model.get(), 1.0, 1);
  auto pool = ParallelTarget::Create(&primary, 1);
  ASSERT_TRUE(pool.ok()) << pool.status();

  InterventionSpans spans;
  const std::vector<PredicateId> preds = model->predicates();
  ASSERT_GE(preds.size(), 4u);
  const size_t poison_index = 2;
  for (size_t i = 0; i < 8; ++i) {
    if (i == poison_index) {
      spans.push_back({model->failure()});  // the poisoned span
    } else {
      spans.push_back({preds[i % preds.size()]});
    }
  }
  const int trials = 3;

  auto result = (*pool)->RunInterventionsBatch(spans, trials);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);

  // Serial accounting: only the spans before the poison executed (the
  // poisoned span failed before running anything). Pre-fix, every span of
  // the batch kept executing and billing after the failure.
  EXPECT_EQ((*pool)->executions(),
            static_cast<uint64_t>(poison_index) * trials);
  const SubstrateCounters stats = (*pool)->counters();
  EXPECT_EQ(stats.cancelled_chunks, spans.size() - poison_index - 1);

  // The trial cursor did not commit: the next (successful) dispatch runs
  // the positions serial dispatch would run after its failure -- i.e. the
  // same base the failed round started at.
  FlakyModelTarget serial(model.get(), 1.0, 1);
  auto expected = serial.RunIntervened({preds[0]}, trials);
  ASSERT_TRUE(expected.ok());
  auto retry = (*pool)->RunIntervened({preds[0]}, trials);
  ASSERT_TRUE(retry.ok()) << retry.status();
  ASSERT_EQ(retry->logs.size(), expected->logs.size());
  for (size_t i = 0; i < retry->logs.size(); ++i) {
    EXPECT_EQ(retry->logs[i].failed, expected->logs[i].failed) << "log " << i;
  }
}

TEST(SchedulerFailFastTest, ParallelFailureStillReturnsEarliestObservedError) {
  std::unique_ptr<GroundTruthModel> model = MakeApp(/*seed=*/13);
  PoisonTarget primary(model.get(), 1.0, 1);
  auto pool = ParallelTarget::Create(&primary, 4);
  ASSERT_TRUE(pool.ok()) << pool.status();

  InterventionSpans spans = InterventionSpans(12, {model->predicates()[0]});
  spans[5] = {model->failure()};
  auto result = (*pool)->RunInterventionsBatch(spans, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  // Under parallelism the exact execution count is schedule-dependent, but
  // fail-fast bounds it: the poisoned span itself never executes, so the
  // total is strictly below the full batch.
  EXPECT_LT((*pool)->executions(),
            static_cast<uint64_t>(spans.size()) * 2);
}

}  // namespace
}  // namespace aid
