// ParallelTarget: batched intervention dispatch over replicated targets.
//
// The paper's cost model (Sections 2 and 7) is dominated by application
// executions: every intervention round re-runs the subject `trials` times,
// and nondeterministic subjects need many trials (footnote 1). The engine's
// InterventionTarget::RunInterventionsBatch hook hands whole rounds to the
// backend; ParallelTarget is the backend that turns those rounds into
// wall-clock-parallel work:
//
//   * a fixed pool of `parallelism` replicas cloned from one primary
//     ReplicableTarget, each bound 1:1 to a pool worker;
//   * a ChunkScheduler (exec/scheduler.h) that cuts each round's spans and
//     trials into chunks on per-replica queues and -- under the default
//     work-stealing policy -- lets fast replicas steal the chunks queued
//     behind stragglers, guided by per-replica latency EWMAs;
//   * deterministic trial seeking (ReplicableTarget::SeekTrial) so every
//     chunk runs the exact trial positions a serial loop over the same
//     spans would have used -- results are bit-identical to serial dispatch
//     of the same calls, independent of worker count, replica speeds, and
//     steal schedule. (Whether the engine submits the same spans is the
//     engine's dispatch mode, not this class's: batched linear-scan
//     dispatch runs spans that a serial unbatched scan would have pruned,
//     which on nondeterministic targets also shifts later spans' trial
//     positions. See EngineOptions::batched_dispatch.)
//
// Single-span rounds still parallelize: RunIntervened chunks its `trials`
// executions across the replicas with the logs landing in trial order,
// which is where nondeterministic targets with high trial counts win.
//
// Error paths fail fast: the first chunk failure cancels every
// not-yet-leased chunk, the round returns the serially earliest observed
// error, and the trial cursor is committed only on success. Chunks a
// worker had already leased when the failure landed still run to
// completion and bill executions()/counters() -- concurrency makes exact
// serial error accounting impossible -- but nothing queued behind the
// failure is started, which is the bulk of what the old dispatcher
// over-billed.
//
// executions() sums the primary's counter (observation cost) with every
// replica's counter, so engine accounting stays exact. All engine-facing
// entry points run on the driving thread and join their workers before
// returning; Observer callbacks therefore stay serialized on the driving
// thread and existing observers need no locking.

#ifndef AID_EXEC_PARALLEL_TARGET_H_
#define AID_EXEC_PARALLEL_TARGET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/target.h"
#include "exec/replicable.h"
#include "exec/scheduler.h"
#include "exec/thread_pool.h"

namespace aid {

/// Upper bound on replica pools. Far above any sane worker count (replicas
/// cost real memory -- and under process isolation, a live child process
/// each); a request beyond it is a typo or an overflow, not a plan, and gets
/// a clear error instead of an OOM or a fork bomb.
inline constexpr int kMaxParallelism = 256;

/// The shared validation gate for every parallelism knob (SessionBuilder,
/// TargetConfig, ParallelTarget::Create): OK iff 1 <= parallelism <=
/// kMaxParallelism, with a message naming the offending value.
Status ValidateParallelism(int parallelism);

class ParallelTarget : public InterventionTarget {
 public:
  /// Clones `primary` into `parallelism` replicas backed by `parallelism`
  /// pool workers, dispatched per `scheduler` (default: latency-aware work
  /// stealing). `primary` is borrowed (it must outlive the ParallelTarget)
  /// and is never run again -- it only contributes its executions() history
  /// (the observation phase) to this target's accounting. Requires
  /// parallelism >= 1; parallelism == 1 is a valid degenerate pool whose
  /// results equal the primary's by the ReplicableTarget contract.
  /// `telemetry` (nullable, non-owning; must outlive the target) is handed
  /// to the ChunkScheduler for chunk spans and replica metrics.
  static Result<std::unique_ptr<ParallelTarget>> Create(
      const ReplicableTarget* primary, int parallelism,
      SchedulerOptions scheduler = {}, Telemetry* telemetry = nullptr);

  /// Chunks `trials` across the replicas (contiguous trial ranges, logs
  /// assembled in trial order).
  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override;

  /// Chunks the spans' trials out across the replicas; results come back in
  /// span order.
  Result<std::vector<TargetRunResult>> RunInterventionsBatch(
      const InterventionSpans& spans, int trials) override;

  /// Primary executions (observation) + every replica's executions.
  uint64_t executions() const override;

  /// Primary + every replica's counters (health is nonzero only over
  /// process-isolated or remote replicas, src/proc/ and src/net/), plus the
  /// scheduler's per-replica trials, steals, fail-fast cancellations and
  /// straggler wait. Same quiescence argument as executions().
  SubstrateCounters counters() const override;

  int parallelism() const { return static_cast<int>(replicas_.size()); }

  const SchedulerOptions& scheduler_options() const {
    return scheduler_.options();
  }

  /// Latency estimate for one replica slot, us/trial (0: no sample yet,
  /// or `replica` outside [0, parallelism())).
  uint64_t replica_ewma_micros(int replica) const {
    if (replica < 0) return 0;
    return scheduler_.ewma_micros(static_cast<size_t>(replica));
  }

 private:
  ParallelTarget(const ReplicableTarget* primary,
                 std::vector<std::unique_ptr<ReplicableTarget>> replicas,
                 SchedulerOptions scheduler, Telemetry* telemetry);

  /// The one dispatch path: chunks `spans` x `trials` starting at the trial
  /// cursor, runs the round, and commits the cursor ONLY on success (a
  /// failed round leaves the cursor untouched, like serial dispatch that
  /// stopped at its first error).
  Result<std::vector<TargetRunResult>> Dispatch(const InterventionSpans& spans,
                                                int trials);

  const ReplicableTarget* primary_;
  std::vector<std::unique_ptr<ReplicableTarget>> replicas_;
  /// Borrowed views of replicas_, in slot order, for the scheduler.
  std::vector<ReplicableTarget*> replica_ptrs_;

  ChunkScheduler scheduler_;

  /// Declared after the replicas and scheduler state: the pool's destructor
  /// drains still-queued tasks, which touch both, so it must run first.
  ThreadPool pool_;

  /// Global intervened-trial cursor: the trial index serial dispatch would
  /// be at (starts at the primary's position, advances by the trials
  /// dispatched here on success). Only touched on the driving thread.
  uint64_t trial_cursor_ = 0;
};

}  // namespace aid

#endif  // AID_EXEC_PARALLEL_TARGET_H_
