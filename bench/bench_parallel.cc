// Parallel dispatch bench: serial vs. batched vs. parallel intervention
// execution (src/exec/) at 1/2/4/8 workers, plus the heterogeneous-pool
// scenario (one replica 10x slower) comparing static sharding against the
// latency-aware work-stealing scheduler. The heterogeneous scenario is
// self-checking: it exits 1 unless work stealing beats static sharding by
// >= 1.5x with a bit-identical discovery report.
//
// Three uniform subjects:
//   * a symmetric synthetic model -- executions cost microseconds, so this
//     row mostly measures the dispatch machinery's own overhead;
//   * a VM case study, CPU-bound -- replicas scale with physical cores
//     (flat on a single-core machine, by construction);
//   * the same VM case study with simulated per-execution application
//     latency -- the paper's actual regime (its subjects take seconds per
//     run; re-execution dominates debugging cost, Sections 2 and 7), where
//     overlapping replicas buy wall-clock on any machine.
//
// Every configuration must agree with serial dispatch on the discovered
// causal path (bit-identical reports, the ReplicableTarget contract), and
// the batched rows at 1/2/4/8 workers must agree on rounds, executions and
// speculative executions (the scan window is a constant, so the worker
// count cannot change them). Both checks are deterministic; the bench exits
// 1 when either fails. It prints rounds/executions/speculative executions
// so the accounting is visible next to the speedup.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "bench_json.h"
#include "casestudies/case_study.h"
#include "core/engine.h"
#include "core/vm_target.h"
#include "exec/parallel_target.h"
#include "exec/replicable.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace {

using namespace aid;

/// The bench's JSON profile; every printed row lands in it too, keyed
/// <subject prefix>_<slugged dispatch label>_wall_ms.
bench::BenchJson g_profile("parallel");
std::string g_prefix;

std::string Slug(const char* label) {
  std::string slug;
  for (const char* p = label; *p != '\0'; ++p) {
    const char c = *p;
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      slug += c;
    } else if (c >= 'A' && c <= 'Z') {
      slug += static_cast<char>(c - 'A' + 'a');
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

/// Wraps a ReplicableTarget and charges a simulated application latency per
/// execution -- the stand-in for subjects whose runs block on I/O, sleeps,
/// or remote machinery rather than local CPU.
class LatencyTarget : public ReplicableTarget {
 public:
  LatencyTarget(std::unique_ptr<ReplicableTarget> inner,
                std::chrono::microseconds per_execution)
      : inner_(std::move(inner)), per_execution_(per_execution) {}

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override {
    if (trials < 1) trials = 1;
    std::this_thread::sleep_for(per_execution_ * trials);
    return inner_->RunIntervened(intervened, trials);
  }

  Result<std::unique_ptr<ReplicableTarget>> Clone() const override {
    AID_ASSIGN_OR_RETURN(std::unique_ptr<ReplicableTarget> inner,
                         inner_->Clone());
    return std::unique_ptr<ReplicableTarget>(
        new LatencyTarget(std::move(inner), per_execution_));
  }

  void SeekTrial(uint64_t trial_index) override {
    inner_->SeekTrial(trial_index);
  }

  uint64_t trial_position() const override {
    return inner_->trial_position();
  }

  uint64_t executions() const override { return inner_->executions(); }

 private:
  std::unique_ptr<ReplicableTarget> inner_;
  std::chrono::microseconds per_execution_;
};

/// LatencyTarget whose FIRST clone charges `slow_factor` times the base
/// latency: the heterogeneous-pool stand-in (one replica living on a
/// loaded/distant machine). The slowdown is pure wall clock -- positions
/// and bytes are untouched, so reports must stay bit-identical however the
/// scheduler routes around the straggler.
class HeteroLatencyTarget : public ReplicableTarget {
 public:
  HeteroLatencyTarget(std::unique_ptr<ReplicableTarget> inner,
                      std::chrono::microseconds base_latency, int slow_factor)
      : inner_(std::move(inner)),
        base_(base_latency),
        slow_factor_(slow_factor),
        delay_(base_latency),
        clones_(std::make_shared<std::atomic<int>>(0)) {}

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override {
    if (trials < 1) trials = 1;
    std::this_thread::sleep_for(delay_ * trials);
    return inner_->RunIntervened(intervened, trials);
  }

  Result<std::unique_ptr<ReplicableTarget>> Clone() const override {
    AID_ASSIGN_OR_RETURN(std::unique_ptr<ReplicableTarget> inner,
                         inner_->Clone());
    auto clone = std::unique_ptr<HeteroLatencyTarget>(
        new HeteroLatencyTarget(std::move(inner), base_, slow_factor_));
    clone->clones_ = clones_;
    clone->delay_ =
        clones_->fetch_add(1) == 0 ? base_ * slow_factor_ : base_;
    return std::unique_ptr<ReplicableTarget>(std::move(clone));
  }

  void SeekTrial(uint64_t trial_index) override {
    inner_->SeekTrial(trial_index);
  }
  uint64_t trial_position() const override { return inner_->trial_position(); }
  uint64_t executions() const override { return inner_->executions(); }

 private:
  std::unique_ptr<ReplicableTarget> inner_;
  std::chrono::microseconds base_;
  int slow_factor_;
  std::chrono::microseconds delay_;
  std::shared_ptr<std::atomic<int>> clones_;
};

struct RunStats {
  double ms = 0;
  uint64_t rounds = 0;
  uint64_t executions = 0;
  uint64_t speculative = 0;
  uint64_t steals = 0;
  double straggler_wait_ms = 0;
  std::string path;
  bool ok = false;
};

std::string PathKey(const DiscoveryReport& report) {
  std::string key;
  for (PredicateId id : report.causal_path) {
    key += std::to_string(id);
    key += '>';
  }
  return key;
}

/// Prints one row; returns false when its causal path differs from the
/// baseline's.
bool PrintRow(const char* label, const RunStats& run, const RunStats& base) {
  std::printf("%-22s | %9.2f %7.2fx %7llu %11llu %6llu%s\n", label, run.ms,
              base.ms / run.ms, static_cast<unsigned long long>(run.rounds),
              static_cast<unsigned long long>(run.executions),
              static_cast<unsigned long long>(run.speculative),
              run.path == base.path ? "" : "  [PATH MISMATCH]");
  g_profile.Metric(g_prefix + "_" + Slug(label) + "_wall_ms", run.ms);
  return run.path == base.path;
}

/// Returns false (and says why on stderr) when a parallel batched row's
/// rounds, executions or speculative executions differ from the 1-worker
/// batched row's.
bool SameCounters(const char* label, const RunStats& run,
                  const RunStats& batch) {
  if (run.rounds == batch.rounds && run.executions == batch.executions &&
      run.speculative == batch.speculative) {
    return true;
  }
  std::fprintf(stderr,
               "BUG: %s %s: rounds/executions/speculative %llu/%llu/%llu, "
               "batched (1 worker) %llu/%llu/%llu\n",
               g_prefix.c_str(), label,
               static_cast<unsigned long long>(run.rounds),
               static_cast<unsigned long long>(run.executions),
               static_cast<unsigned long long>(run.speculative),
               static_cast<unsigned long long>(batch.rounds),
               static_cast<unsigned long long>(batch.executions),
               static_cast<unsigned long long>(batch.speculative));
  return false;
}

void PrintHeader(const char* title) {
  std::printf("%s\n", title);
  std::printf("%-22s | %9s %8s %7s %11s %6s\n", "dispatch", "wall ms",
              "speedup", "rounds", "executions", "spec");
}

// ---- session-driven subjects (model + raw VM case study) -----------------

/// Times the discovery phase alone: observation and AC-DAG construction run
/// once, untimed, in a warm-up pass; the timed runs then measure pure
/// intervention dispatch (the paper's cost model and this subsystem's
/// target).
template <typename MakeBuilder>
RunStats TimeDiscovery(MakeBuilder make_builder, const EngineOptions& engine,
                       int repeats) {
  RunStats stats;
  auto session = make_builder().Build();
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n", session.status().ToString().c_str());
    return stats;
  }
  auto warmup = session->Run(engine);
  if (!warmup.ok()) {
    std::fprintf(stderr, "warm-up: %s\n", warmup.status().ToString().c_str());
    return stats;
  }
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto report = session->Run(engine);
    const auto end = std::chrono::steady_clock::now();
    if (!report.ok()) {
      std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
      return stats;
    }
    stats.ms +=
        std::chrono::duration<double, std::milli>(end - start).count();
    stats.rounds = report->discovery.rounds;
    stats.executions = report->discovery.executions;
    stats.speculative = report->discovery.speculative_executions;
    stats.path = PathKey(report->discovery);
  }
  stats.ms /= repeats;
  stats.ok = true;
  return stats;
}

/// Returns false when a run fails or a row breaks a self-check.
template <typename MakeBuilder>
bool BenchSubject(const char* title, MakeBuilder make_builder,
                  EngineOptions engine, int repeats) {
  PrintHeader(title);
  engine.linear_scan = true;
  engine.branch_pruning = false;

  EngineOptions serial = engine;
  serial.batched_dispatch = false;
  serial.parallelism = 1;
  RunStats base =
      TimeDiscovery([&]() { return make_builder(1); }, serial, repeats);
  if (!base.ok) return false;
  PrintRow("serial", base, base);

  EngineOptions batched = engine;
  batched.batched_dispatch = true;
  batched.parallelism = 1;
  RunStats batch =
      TimeDiscovery([&]() { return make_builder(1); }, batched, repeats);
  if (!batch.ok) return false;
  bool ok = PrintRow("batched (1 worker)", batch, base);

  for (int workers : {2, 4, 8}) {
    EngineOptions parallel = engine;
    parallel.batched_dispatch = true;
    parallel.parallelism = workers;
    RunStats run = TimeDiscovery([&]() { return make_builder(workers); },
                                 parallel, repeats);
    if (!run.ok) return false;
    const std::string label =
        "parallel (" + std::to_string(workers) + " workers)";
    ok &= PrintRow(label.c_str(), run, base);
    ok &= SameCounters(label.c_str(), run, batch);
  }
  std::printf("\n");
  return ok;
}

// ---- latency-bound subject (core-level API, custom target) ---------------

RunStats TimeLatencyBound(const VmTarget& observed, const AcDag& dag,
                          std::chrono::microseconds latency, int workers,
                          EngineOptions engine, int repeats) {
  RunStats stats;
  for (int i = 0; i < repeats; ++i) {
    auto inner = observed.Clone();
    if (!inner.ok()) return stats;
    LatencyTarget primary(std::move(inner).value(), latency);
    InterventionTarget* target = &primary;
    std::unique_ptr<ParallelTarget> pool;
    if (workers > 1) {
      auto pool_or = ParallelTarget::Create(&primary, workers);
      if (!pool_or.ok()) return stats;
      pool = std::move(pool_or).value();
      target = pool.get();
    }
    CausalPathDiscovery discovery(&dag, target, engine);
    const auto start = std::chrono::steady_clock::now();
    auto report = discovery.Run();
    const auto end = std::chrono::steady_clock::now();
    if (!report.ok()) {
      std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
      return stats;
    }
    stats.ms +=
        std::chrono::duration<double, std::milli>(end - start).count();
    stats.rounds = report->rounds;
    stats.executions = report->executions;
    stats.speculative = report->speculative_executions;
    stats.path = PathKey(*report);
  }
  stats.ms /= repeats;
  stats.ok = true;
  return stats;
}

bool BenchLatencyBound(std::chrono::microseconds latency, int repeats) {
  g_prefix = "kafka_latency";
  auto study = MakeKafkaUseAfterFree();
  if (!study.ok()) return false;
  auto vm = VmTarget::Create(&study->program, study->target_options);
  if (!vm.ok()) {
    std::fprintf(stderr, "vm: %s\n", vm.status().ToString().c_str());
    return false;
  }
  auto dag = (*vm)->BuildAcDag();
  if (!dag.ok()) return false;

  const std::string title =
      "VM case study with " + std::to_string(latency.count()) +
      "us simulated application latency per execution (kafka, 6 trials)";
  PrintHeader(title.c_str());

  EngineOptions engine = EngineOptions::Linear();
  engine.trials_per_intervention = 6;

  EngineOptions serial = engine;
  serial.batched_dispatch = false;
  RunStats base = TimeLatencyBound(**vm, *dag, latency, 1, serial, repeats);
  if (!base.ok) return false;
  PrintRow("serial", base, base);

  EngineOptions batched = engine;
  batched.batched_dispatch = true;
  RunStats batch = TimeLatencyBound(**vm, *dag, latency, 1, batched, repeats);
  if (!batch.ok) return false;
  bool ok = PrintRow("batched (1 worker)", batch, base);

  for (int workers : {2, 4, 8}) {
    EngineOptions parallel = batched;
    parallel.parallelism = workers;
    RunStats run =
        TimeLatencyBound(**vm, *dag, latency, workers, parallel, repeats);
    if (!run.ok) return false;
    const std::string label =
        "parallel (" + std::to_string(workers) + " workers)";
    ok &= PrintRow(label.c_str(), run, base);
    ok &= SameCounters(label.c_str(), run, batch);
  }
  std::printf("\n");
  return ok;
}

// ---- heterogeneous pool: static sharding vs work stealing ----------------

RunStats TimeHetero(const VmTarget& observed, const AcDag& dag,
                    std::chrono::microseconds latency, int slow_factor,
                    int workers, SchedulerPolicy policy, EngineOptions engine,
                    int repeats) {
  RunStats stats;
  for (int i = 0; i < repeats; ++i) {
    auto inner = observed.Clone();
    if (!inner.ok()) return stats;
    HeteroLatencyTarget primary(std::move(inner).value(), latency,
                                slow_factor);
    SchedulerOptions scheduler;
    scheduler.policy = policy;
    auto pool_or = ParallelTarget::Create(&primary, workers, scheduler);
    if (!pool_or.ok()) return stats;
    std::unique_ptr<ParallelTarget> pool = std::move(pool_or).value();
    CausalPathDiscovery discovery(&dag, pool.get(), engine);
    const auto start = std::chrono::steady_clock::now();
    auto report = discovery.Run();
    const auto end = std::chrono::steady_clock::now();
    if (!report.ok()) {
      std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
      return stats;
    }
    stats.ms +=
        std::chrono::duration<double, std::milli>(end - start).count();
    stats.rounds = report->rounds;
    stats.executions = report->executions;
    stats.speculative = report->speculative_executions;
    stats.steals = report->steals;
    stats.straggler_wait_ms =
        static_cast<double>(report->straggler_wait_micros) / 1000.0;
    stats.path = PathKey(*report);
  }
  stats.ms /= repeats;
  stats.ok = true;
  return stats;
}

/// The acceptance scenario: 4 workers, replica 0 charging 10x the
/// per-execution latency. Returns 0 when work stealing beats static
/// sharding >= 1.5x with a bit-identical path, 1 otherwise.
int BenchHeterogeneous(std::chrono::microseconds latency, int repeats) {
  g_prefix = "hetero";
  auto study = MakeKafkaUseAfterFree();
  if (!study.ok()) return 1;
  auto vm = VmTarget::Create(&study->program, study->target_options);
  if (!vm.ok()) return 1;
  auto dag = (*vm)->BuildAcDag();
  if (!dag.ok()) return 1;

  const int slow_factor = 10;
  const int workers = 4;
  const std::string title =
      "Heterogeneous pool (kafka, " + std::to_string(latency.count()) +
      "us/execution, replica 0 of " + std::to_string(workers) + " is " +
      std::to_string(slow_factor) + "x slower, 6 trials)";
  PrintHeader(title.c_str());

  EngineOptions engine = EngineOptions::Linear();
  engine.trials_per_intervention = 6;
  engine.batched_dispatch = true;
  engine.parallelism = workers;

  RunStats fixed = TimeHetero(**vm, *dag, latency, slow_factor, workers,
                              SchedulerPolicy::kStatic, engine, repeats);
  if (!fixed.ok) return 1;
  PrintRow("static sharding", fixed, fixed);
  RunStats stealing = TimeHetero(**vm, *dag, latency, slow_factor, workers,
                                 SchedulerPolicy::kWorkStealing, engine,
                                 repeats);
  if (!stealing.ok) return 1;
  PrintRow("work stealing", stealing, fixed);
  std::printf("work stealing: %llu chunks stolen, %.1f ms straggler wait "
              "(static waited %.1f ms)\n\n",
              static_cast<unsigned long long>(stealing.steals),
              stealing.straggler_wait_ms, fixed.straggler_wait_ms);

  const double speedup = fixed.ms / stealing.ms;
  if (stealing.path != fixed.path) {
    std::fprintf(stderr,
                 "BUG: work-stealing report diverges from static sharding\n");
    return 1;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "REGRESSION: work stealing only %.2fx over static sharding "
                 "on a heterogeneous pool (>= 1.5x required)\n",
                 speedup);
    return 1;
  }
  std::printf("heterogeneous-pool check passed: %.2fx over static sharding, "
              "bit-identical report\n",
              speedup);
  g_profile.Metric("hetero_stealing_speedup", speedup);
  g_profile.Metric("hetero_steals", static_cast<double>(stealing.steals));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int repeats = argc > 1 ? std::atoi(argv[1]) : 3;
  const int latency_us = argc > 2 ? std::atoi(argv[2]) : 500;
  std::printf("hardware threads: %u\n\n", std::thread::hardware_concurrency());

  // Synthetic model: executions are microseconds, so this mostly measures
  // the dispatch machinery itself.
  auto model = MakeSymmetricModel(/*junctions=*/3, /*branches=*/6,
                                  /*chain_len=*/5, /*causal=*/6, /*seed=*/7);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }
  bool ok = true;
  {
    g_prefix = "model";
    EngineOptions engine = EngineOptions::Linear();
    engine.trials_per_intervention = 4;
    ok &= BenchSubject(
        "Synthetic model (symmetric DAG, 90+ predicates, 4 trials)",
        [&](int workers) {
          SessionBuilder builder;
          builder.WithModel(model->get())
              .WithDescriptions(false)
              .WithParallelism(workers);
          return builder;
        },
        engine, repeats);
  }

  // VM case study, CPU-bound: every execution recompiles the intervention
  // plan and re-runs the program. Scales with physical cores.
  {
    g_prefix = "kafka_cpu";
    EngineOptions engine = EngineOptions::Linear();
    engine.trials_per_intervention = 6;
    ok &= BenchSubject(
        "VM case study, CPU-bound (kafka use-after-free, 6 trials)",
        [&](int workers) {
          SessionBuilder builder;
          builder.WithCaseStudy("kafka")
              .WithDescriptions(false)
              .WithParallelism(workers);
          return builder;
        },
        engine, repeats);
  }

  // VM case study, latency-bound: the regime the paper's subjects live in.
  ok &= BenchLatencyBound(std::chrono::microseconds(latency_us), repeats);

  // Heterogeneous pool (one straggler replica): static vs work stealing,
  // self-checking.
  const int rc = BenchHeterogeneous(std::chrono::microseconds(latency_us),
                                    repeats);
  g_profile.Write();
  // The process exit code is the acceptance gate for every self-check.
  return ok ? rc : 1;
}
