// Remote-fleet bench: per-trial RPC overhead of loopback runner fleets vs.
// in-process dispatch, at 1/2/4/8 workers over 2 runners.
//
// The subject is a synthetic ground-truth model whose executions cost
// microseconds, so the numbers isolate what the net/ machinery itself
// charges per trial: one RUN_TRIAL frame out and one VERDICT frame carrying
// the whole predicate log back, across a loopback TCP connection into a
// forked runner-side subject process. The paper's real subjects take
// seconds per execution (Section 7), which is why per-trial overhead in
// the tens to hundreds of microseconds makes a fleet effectively free --
// and every configuration must still produce the bit-identical discovery
// report, which the bench asserts (exit 1 on divergence).
//
// Usage: bench_net [model_threads] (default 14)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench_json.h"
#include "net/runner.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace {

using namespace aid;

struct RunStats {
  double wall_ms = 0;
  SessionReport report;
};

RunStats RunOnce(const GroundTruthModel* model,
                 const std::vector<std::string>& fleet, int parallelism,
                 int trials,
                 SchedulerPolicy policy = SchedulerPolicy::kWorkStealing) {
  SessionBuilder builder;
  builder.WithModel(model).WithTrials(trials).WithParallelism(parallelism);
  SchedulerOptions scheduler;
  scheduler.policy = policy;
  builder.WithScheduler(scheduler);
  if (!fleet.empty()) {
    builder.WithRemoteFleet(fleet, /*trial_deadline_ms=*/20000);
  }
  const auto start = std::chrono::steady_clock::now();
  auto session = builder.Build();
  if (!session.ok()) {
    std::fprintf(stderr, "session build failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }
  auto report = session->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "session run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  const auto end = std::chrono::steady_clock::now();
  RunStats stats;
  stats.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  stats.report = std::move(*report);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  if (!RemoteFleetSupported()) {
    std::printf("bench_net: remote fleets unsupported here; "
                "nothing to measure\n");
    return 0;
  }
  const int model_threads = argc > 1 ? std::atoi(argv[1]) : 14;
  const int trials = 3;

  SyntheticAppOptions options;
  options.max_threads = model_threads;
  options.seed = 7;
  auto model = GenerateSyntheticApp(options);
  if (!model.ok()) {
    std::fprintf(stderr, "model generation failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  // Two loopback runners: the smallest real fleet.
  std::vector<std::unique_ptr<Runner>> runners;
  std::vector<std::string> fleet;
  for (int i = 0; i < 2; ++i) {
    auto runner = Runner::Start();
    if (!runner.ok()) {
      std::fprintf(stderr, "runner start failed: %s\n",
                   runner.status().ToString().c_str());
      return 1;
    }
    fleet.push_back((*runner)->endpoint().ToString());
    runners.push_back(std::move(*runner));
  }

  std::printf("subject: synthetic model, %zu predicates, %d trials/round\n",
              (*model)->size(), trials);
  std::printf("fleet: 2 loopback runners (%s, %s)\n\n", fleet[0].c_str(),
              fleet[1].c_str());
  std::printf("%-14s %-8s %10s %12s %12s %8s\n", "substrate", "workers",
              "wall_ms", "executions", "us/trial", "rounds");

  // In-process baselines at matching worker counts (dispatch mode matches:
  // parallelism > 1 implies batched linear scan on both sides).
  bench::BenchJson profile("net");
  std::vector<int> workers = {1, 2, 4, 8};
  std::vector<RunStats> in_process;
  for (int w : workers) {
    RunStats stats = RunOnce(model->get(), {}, w, trials);
    std::printf("%-14s %-8d %10.2f %12llu %12.2f %8llu\n", "in_process", w,
                stats.wall_ms,
                (unsigned long long)stats.report.discovery.executions,
                1000.0 * stats.wall_ms /
                    std::max<uint64_t>(1, stats.report.discovery.executions),
                (unsigned long long)stats.report.discovery.rounds);
    profile.Metric("in_process_w" + std::to_string(w) + "_wall_ms",
                   stats.wall_ms);
    in_process.push_back(std::move(stats));
  }
  std::printf("\n");
  for (size_t i = 0; i < workers.size(); ++i) {
    const int w = workers[i];
    RunStats stats = RunOnce(model->get(), fleet, w, trials);
    const double us_per_trial =
        1000.0 * stats.wall_ms /
        std::max<uint64_t>(1, stats.report.discovery.executions);
    const double base_us =
        1000.0 * in_process[i].wall_ms /
        std::max<uint64_t>(1, in_process[i].report.discovery.executions);
    std::printf("%-14s %-8d %10.2f %12llu %12.2f %8llu  (+%.2f us/trial RPC)\n",
                "remote_fleet", w, stats.wall_ms,
                (unsigned long long)stats.report.discovery.executions,
                us_per_trial,
                (unsigned long long)stats.report.discovery.rounds,
                us_per_trial - base_us);
    profile.Metric("remote_fleet_w" + std::to_string(w) + "_wall_ms",
                   stats.wall_ms);
    profile.Metric("remote_fleet_w" + std::to_string(w) + "_rpc_us_per_trial",
                   us_per_trial - base_us);
    if (!SameDiscoveryOutcome(stats.report.discovery, in_process[i].report.discovery)) {
      std::fprintf(stderr,
                   "BUG: remote-fleet report diverges from in-process at "
                   "%d workers\n",
                   w);
      return 1;
    }
  }
  std::printf("\nall remote-fleet reports bit-identical to in-process runs "
              "(%d + %d sessions hosted)\n\n",
              runners[0]->sessions_started(),
              runners[1]->sessions_started());

  // ---- heterogeneous fleet: one runner 10x slower ------------------------
  //
  // A third runner joins, charging 10x a typical loopback trial's cost
  // (~200us RPC -> 2ms injected delay) per trial, and one replica lives on
  // each runner with enough trials per round that static sharding MUST use
  // the straggler every round. The latency-aware work-stealing scheduler
  // has to win >= 1.5x with the bit-identical report, or this bench
  // exits 1.
  {
    RunnerOptions slow_options;
    slow_options.trial_delay_us = 2000;
    auto slow_runner = Runner::Start(slow_options);
    if (!slow_runner.ok()) {
      std::fprintf(stderr, "slow runner start failed: %s\n",
                   slow_runner.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> hetero_fleet = fleet;
    hetero_fleet.push_back((*slow_runner)->endpoint().ToString());
    const int hetero_workers = 3;   // one replica per runner
    const int hetero_trials = 12;   // static must shard onto the straggler
    std::printf("heterogeneous fleet: 2 fast runners + %s (+2000us/trial), "
                "%d workers, %d trials/round\n",
                hetero_fleet[2].c_str(), hetero_workers, hetero_trials);

    RunStats reference =
        RunOnce(model->get(), {}, hetero_workers, hetero_trials);
    RunStats fixed = RunOnce(model->get(), hetero_fleet, hetero_workers,
                             hetero_trials, SchedulerPolicy::kStatic);
    std::printf("%-14s %10.2f ms  %8llu steals  %10.1f ms straggler wait\n",
                "static", fixed.wall_ms,
                (unsigned long long)fixed.report.discovery.steals,
                fixed.report.discovery.straggler_wait_micros / 1000.0);
    RunStats stealing = RunOnce(model->get(), hetero_fleet, hetero_workers,
                                hetero_trials, SchedulerPolicy::kWorkStealing);
    std::printf("%-14s %10.2f ms  %8llu steals  %10.1f ms straggler wait\n",
                "work-stealing", stealing.wall_ms,
                (unsigned long long)stealing.report.discovery.steals,
                stealing.report.discovery.straggler_wait_micros / 1000.0);

    if (!SameDiscoveryOutcome(stealing.report.discovery,
                              fixed.report.discovery) ||
        !SameDiscoveryOutcome(stealing.report.discovery,
                              reference.report.discovery)) {
      std::fprintf(stderr, "BUG: heterogeneous-fleet report diverges\n");
      return 1;
    }
    const double speedup = fixed.wall_ms / stealing.wall_ms;
    if (speedup < 1.5) {
      std::fprintf(stderr,
                   "REGRESSION: work stealing only %.2fx over static "
                   "sharding on the heterogeneous fleet (>= 1.5x required)\n",
                   speedup);
      return 1;
    }
    std::printf("heterogeneous-fleet check passed: %.2fx over static "
                "sharding, bit-identical report\n",
                speedup);
    profile.Metric("hetero_static_wall_ms", fixed.wall_ms);
    profile.Metric("hetero_stealing_wall_ms", stealing.wall_ms);
    profile.Metric("hetero_stealing_speedup", speedup);
    profile.Metric("hetero_steals",
                   static_cast<double>(stealing.report.discovery.steals));
  }
  profile.Write();
  return 0;
}
