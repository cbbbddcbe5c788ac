#include "exec/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <utility>

#include "common/math_util.h"
#include "telemetry/telemetry.h"

namespace aid {

namespace {
using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - start)
                           .count();
  return elapsed > 0 ? static_cast<uint64_t>(elapsed) : 0;
}
}  // namespace

Status ValidateSchedulerOptions(const SchedulerOptions& options) {
  if (options.chunks_per_worker < 1) {
    return Status::InvalidArgument(
        "scheduler: chunks_per_worker must be >= 1, got " +
        std::to_string(options.chunks_per_worker));
  }
  if (options.min_chunk_trials < 1) {
    return Status::InvalidArgument(
        "scheduler: min_chunk_trials must be >= 1, got " +
        std::to_string(options.min_chunk_trials));
  }
  if (!(options.ewma_alpha > 0.0) || options.ewma_alpha > 1.0) {
    return Status::InvalidArgument(
        "scheduler: ewma_alpha must be in (0, 1], got " +
        std::to_string(options.ewma_alpha));
  }
  return Status::OK();
}

ChunkScheduler::ChunkScheduler(SchedulerOptions options, size_t replica_count,
                               Telemetry* telemetry)
    : options_(options),
      ewma_micros_(replica_count),
      trials_run_(replica_count, 0),
      chunks_run_(replica_count, 0),
      steals_by_(replica_count, 0),
      telemetry_(telemetry) {}

std::vector<ChunkScheduler::Chunk> ChunkScheduler::MakeChunks(
    const InterventionSpans& spans, int trials, uint64_t base) const {
  std::vector<Chunk> chunks;
  if (spans.empty() || trials < 1) return chunks;
  const uint64_t total =
      static_cast<uint64_t>(spans.size()) * static_cast<uint64_t>(trials);
  // Static sharding cuts one contiguous share per worker (the fixed split
  // of the old dispatcher); work stealing cuts chunks_per_worker times
  // finer so a straggler strands only its current chunk.
  const uint64_t target_chunks =
      ewma_micros_.size() *
      (options_.policy == SchedulerPolicy::kStatic
           ? 1
           : static_cast<uint64_t>(options_.chunks_per_worker));
  uint64_t chunk_trials = (total + target_chunks - 1) / target_chunks;
  chunk_trials = std::max<uint64_t>(
      chunk_trials, static_cast<uint64_t>(options_.min_chunk_trials));
  for (size_t k = 0; k < spans.size(); ++k) {
    // Span k's trials sit at base + k * trials (the serial positions); a
    // chunk never crosses a span boundary (different intervened sets).
    const uint64_t span_base =
        base + static_cast<uint64_t>(k) * static_cast<uint64_t>(trials);
    int done = 0;
    while (done < trials) {
      Chunk chunk;
      chunk.span = &spans[k];
      chunk.first_trial = span_base + static_cast<uint64_t>(done);
      chunk.trials = static_cast<int>(
          std::min<uint64_t>(chunk_trials,
                             static_cast<uint64_t>(trials - done)));
      chunk.result_index = k;
      chunk.log_offset = static_cast<size_t>(done);
      chunks.push_back(chunk);
      done += chunk.trials;
    }
  }
  return chunks;
}

std::vector<std::deque<size_t>> ChunkScheduler::AssignChunks(
    const std::vector<Chunk>& chunks) const {
  const size_t workers = ewma_micros_.size();
  std::vector<std::deque<size_t>> queues(workers);

  // Relative speeds: weight = fastest_ewma / ewma, so a 10x-slower replica
  // gets ~1/10 the initial deal and the others need not steal it back
  // later. Unmeasured replicas are treated as fast (they deserve work until
  // proven slow); with no measurements at all -- or under the static
  // policy -- the deal is even.
  std::vector<double> weight(workers, 1.0);
  if (options_.policy == SchedulerPolicy::kWorkStealing) {
    const uint64_t fastest = ewma_micros(FastestSlot());
    if (fastest > 0) {
      for (size_t i = 0; i < workers; ++i) {
        const uint64_t e = ewma_micros(i);
        if (e > 0) weight[i] = static_cast<double>(fastest) / e;
      }
    }
  }

  uint64_t total_trials = 0;
  for (const Chunk& chunk : chunks) {
    total_trials += static_cast<uint64_t>(chunk.trials);
  }
  double total_weight = 0;
  for (double w : weight) total_weight += w;

  // Contiguous deal in serial order: replica i's cumulative quota is the
  // weighted prefix share of the round's trials. The last replica takes
  // whatever rounding left over.
  size_t next = 0;
  uint64_t dealt = 0;
  double cumulative_weight = 0;
  for (size_t i = 0; i < workers && next < chunks.size(); ++i) {
    cumulative_weight += weight[i];
    const uint64_t quota =
        i + 1 == workers
            ? total_trials
            : static_cast<uint64_t>(std::llround(
                  static_cast<double>(total_trials) *
                  (cumulative_weight / total_weight)));
    while (next < chunks.size() && dealt < quota) {
      queues[i].push_back(next);
      dealt += static_cast<uint64_t>(chunks[next].trials);
      ++next;
    }
  }
  return queues;
}

void ChunkScheduler::RecordLatency(size_t replica, uint64_t micros,
                                   int trials) {
  if (trials < 1) return;
  const double sample =
      static_cast<double>(micros) / static_cast<double>(trials);
  const uint64_t old = ewma_micros_[replica].load(std::memory_order_relaxed);
  const double next =
      FoldEwma(static_cast<double>(old), sample, options_.ewma_alpha);
  const uint64_t folded = static_cast<uint64_t>(next + 0.5);
  ewma_micros_[replica].store(folded, std::memory_order_relaxed);
  if (telemetry_ != nullptr) {
    telemetry_->metrics()
        .GetGauge("aid_replica_ewma_micros",
                  {{"replica", std::to_string(replica)}})
        ->Set(folded);
  }
}

size_t ChunkScheduler::FastestSlot() const {
  size_t fastest = 0;
  uint64_t best = 0;
  for (size_t i = 0; i < ewma_micros_.size(); ++i) {
    const uint64_t e = ewma_micros(i);
    if (e > 0 && (best == 0 || e < best)) {
      best = e;
      fastest = i;
    }
  }
  return fastest;
}

Status ChunkScheduler::ExecuteChunk(
    size_t slot, const Chunk& chunk,
    const std::vector<ReplicableTarget*>& replicas,
    std::vector<TargetRunResult>* results, bool stolen) {
  ReplicableTarget* replica = replicas[slot];
  // Latency sample: prefer the substrate's own wire-level timing
  // (SubstrateCounters::trial_micros, accumulated in proc/client for process-
  // and socket-backed replicas), fall back to call-site wall clock for
  // in-process replicas that do not self-time.
  const SubstrateCounters before = replica->counters();
  // The chunk span parents under the engine's active round span (published
  // cross-thread on the Telemetry bundle): this worker's slice of the round
  // in the trace, on its own lane.
  ScopedSpan chunk_span;
  if (telemetry_ != nullptr && telemetry_->tracer() != nullptr) {
    chunk_span = ScopedSpan(telemetry_->tracer(), "chunk",
                            telemetry_->active_parent());
  }
  const Clock::time_point start = Clock::now();
  replica->SeekTrial(chunk.first_trial);
  Result<TargetRunResult> result =
      replica->RunIntervened(*chunk.span, chunk.trials);
  const uint64_t wall = MicrosSince(start);
  chunk_span.End();
  if (telemetry_ != nullptr && wall > 0) {
    telemetry_
        ->LatencyHistogram("aid_chunk_latency_us",
                           {{"replica", std::to_string(slot)}})
        ->Record(wall);
  }
  const SubstrateCounters after = replica->counters();
  const uint64_t substrate = after.trial_micros - before.trial_micros;
  // Chunks that hit subject turbulence are excluded from the EWMA: their
  // time is deadline waits plus respawn/reconnect recovery, and crashes
  // follow trial POSITIONS, not replicas -- folding one in would brand a
  // healthy replica a straggler for rounds.
  const bool turbulent = after.crashed_trials != before.crashed_trials ||
                         after.timed_out_trials != before.timed_out_trials;
  if (!turbulent) {
    RecordLatency(slot, substrate > 0 ? substrate : wall, chunk.trials);
  }

  if (result.ok() && result->logs.size() != static_cast<size_t>(chunk.trials)) {
    result = Status::Internal(
        "scheduler: replica returned " + std::to_string(result->logs.size()) +
        " logs for a " + std::to_string(chunk.trials) + "-trial chunk");
  }
  if (!result.ok()) return result.status();

  // Disjoint pre-sized slots: no two chunks share a log index, so the
  // writes need no lock and arrive in serial order by construction.
  TargetRunResult& out = (*results)[chunk.result_index];
  for (int t = 0; t < chunk.trials; ++t) {
    out.logs[chunk.log_offset + static_cast<size_t>(t)] =
        std::move(result->logs[static_cast<size_t>(t)]);
  }
  trials_run_[slot] += static_cast<uint64_t>(chunk.trials);
  ++chunks_run_[slot];
  if (stolen) ++steals_by_[slot];
  return Status::OK();
}

Status ChunkScheduler::RunRound(ThreadPool& pool,
                                const std::vector<ReplicableTarget*>& replicas,
                                const std::vector<Chunk>& chunks,
                                std::vector<TargetRunResult>* results) {
  if (chunks.empty()) return Status::OK();
  const size_t workers = replicas.size();

  if (chunks.size() == 1) {
    // Single-chunk rounds (serial-ish workloads, tiny trial counts) skip
    // the pool entirely: no task submissions, no futures, no idle-worker
    // wakeups. The chunk runs inline on the driving thread, on the
    // fastest-measured replica so a known straggler never hosts it.
    return ExecuteChunk(FastestSlot(), chunks.front(), replicas, results,
                        /*stolen=*/false);
  }

  struct RoundState {
    std::mutex mu;
    std::vector<std::deque<size_t>> queues;
    std::vector<uint64_t> queued_trials;
    bool failed = false;
    size_t error_chunk = SIZE_MAX;
    Status error = Status::OK();
    uint64_t cancelled = 0;
  } state;
  state.queues = AssignChunks(chunks);
  state.queued_trials.assign(workers, 0);
  for (size_t i = 0; i < workers; ++i) {
    for (size_t idx : state.queues[i]) {
      state.queued_trials[i] += static_cast<uint64_t>(chunks[idx].trials);
    }
  }

  // Per-slot round bookkeeping. Workers write only their own slot; the
  // driving thread reads after the joins below (which order the accesses),
  // so no locking -- but no vector<bool> either (its packed bits would
  // make neighboring slots race).
  std::vector<Clock::time_point> finish(workers);
  std::vector<char> active(workers, 0);

  auto run_worker = [&](size_t slot) {
    for (;;) {
      size_t chunk_idx = SIZE_MAX;
      bool stolen = false;
      {
        std::lock_guard<std::mutex> lock(state.mu);
        if (state.failed) break;
        if (!state.queues[slot].empty()) {
          chunk_idx = state.queues[slot].front();
          state.queues[slot].pop_front();
          state.queued_trials[slot] -=
              static_cast<uint64_t>(chunks[chunk_idx].trials);
        } else if (options_.policy == SchedulerPolicy::kWorkStealing) {
          // Steal from the queue predicted to finish last: remaining
          // trials weighted by that replica's latency estimate (no
          // estimate -> the thief's own speed). Taken from the back, the
          // serial tail of the victim's contiguous deal.
          //
          // A steal must also be PROFITABLE: running the chunk here
          // (chunk trials x own latency) has to beat leaving it queued
          // behind the victim (queued trials x victim latency). Without
          // this guard the straggler itself "helps" by stealing chunks
          // off fast replicas' queues -- and drags the round back to its
          // own pace, the exact disease this scheduler treats.
          const uint64_t own = ewma_micros(slot);
          const uint64_t fastest = ewma_micros(FastestSlot());
          size_t victim = SIZE_MAX;
          double worst = 0;
          for (size_t j = 0; j < workers; ++j) {
            if (state.queues[j].empty()) continue;
            const uint64_t e = ewma_micros(j);
            // Unmeasured replicas are assumed to run at the fastest
            // measured speed -- the same optimism the initial deal uses.
            // Assuming "as slow as the thief" instead lets a measured-slow
            // thief see a tie against a replica that simply has not run
            // yet, steal its chunk, keep it unmeasured, and repeat the
            // theft every round.
            const double victim_ewma = static_cast<double>(
                e > 0 ? e : (fastest > 0 ? fastest : 1));
            const double predicted =
                static_cast<double>(state.queued_trials[j]) * victim_ewma;
            if (own > 0) {
              const size_t tail = state.queues[j].back();
              const double cost_here =
                  static_cast<double>(chunks[tail].trials) *
                  static_cast<double>(own);
              if (cost_here > predicted) continue;  // unprofitable steal
            }
            if (victim == SIZE_MAX || predicted > worst) {
              victim = j;
              worst = predicted;
            }
          }
          if (victim == SIZE_MAX) break;  // drained, or no profitable steal
          chunk_idx = state.queues[victim].back();
          state.queues[victim].pop_back();
          state.queued_trials[victim] -=
              static_cast<uint64_t>(chunks[chunk_idx].trials);
          stolen = true;
        } else {
          break;  // static policy: own share done, never steal
        }
      }

      const Status executed =
          ExecuteChunk(slot, chunks[chunk_idx], replicas, results, stolen);
      if (!executed.ok()) {
        std::lock_guard<std::mutex> lock(state.mu);
        // Keep the failure earliest in serial order among those observed
        // (racing chunks may fail in any arrival order), and cancel every
        // chunk no worker has leased yet: serial dispatch would not have
        // run -- or billed -- work past its first failure.
        if (!state.failed || chunk_idx < state.error_chunk) {
          state.error = executed;
          state.error_chunk = chunk_idx;
        }
        if (!state.failed) {
          state.failed = true;
          for (std::deque<size_t>& queue : state.queues) {
            state.cancelled += queue.size();
            queue.clear();
          }
          std::fill(state.queued_trials.begin(), state.queued_trials.end(),
                    0);
        }
        break;
      }
      active[slot] = 1;
    }
    finish[slot] = Clock::now();
  };

  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    futures.push_back(pool.Submit([&run_worker, i]() { run_worker(i); }));
  }
  // Every future joins before anything returns: queued tasks must never
  // outlive the caller-owned spans and results they reference. Exceptions
  // (never expected from run_worker) become a Status, not a mid-join leak.
  Status join_error = Status::OK();
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (const std::exception& e) {
      if (join_error.ok()) {
        join_error =
            Status::Internal(std::string("worker task threw: ") + e.what());
      }
    } catch (...) {
      if (join_error.ok()) {
        join_error = Status::Internal("worker task threw a non-std exception");
      }
    }
  }

  // Straggler accounting: among the workers that ran work this round, the
  // idle tail each spent parked behind the last finisher. (Workers that
  // never got a chunk -- single-chunk rounds -- were not "waiting".)
  Clock::time_point last{};
  for (size_t i = 0; i < workers; ++i) {
    if (active[i] && finish[i] > last) last = finish[i];
  }
  for (size_t i = 0; i < workers; ++i) {
    if (!active[i]) continue;
    straggler_wait_micros_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(last -
                                                              finish[i])
            .count());
  }
  cancelled_chunks_ += state.cancelled;
  if (telemetry_ != nullptr) {
    // Cumulative per-slot steal counts as gauges, refreshed at the round
    // barrier (the quiescent point where the per-slot counters are safe to
    // read on the driving thread).
    for (size_t i = 0; i < workers; ++i) {
      telemetry_->metrics()
          .GetGauge("aid_replica_steals", {{"replica", std::to_string(i)}})
          ->Set(steals_by_[i]);
    }
  }

  if (!join_error.ok()) return join_error;
  if (state.failed) return state.error;
  return Status::OK();
}

SubstrateCounters ChunkScheduler::stats() const {
  SubstrateCounters stats;
  stats.replica_trials = trials_run_;
  for (uint64_t steals : steals_by_) stats.steals += steals;
  stats.cancelled_chunks = cancelled_chunks_;
  stats.straggler_wait_micros = straggler_wait_micros_;
  return stats;
}

}  // namespace aid
