// ChunkScheduler: latency-aware work-stealing dispatch of intervention
// rounds over a replica pool.
//
// The paper's cost model (Sections 2 and 7) is wall-clock per intervention
// round, and a round is only as fast as its slowest replica. Fixed
// contiguous sharding (PR 2's dispatcher) hands every replica an equal
// slice up front, so one slow replica -- a loaded machine in a remote
// fleet, a throttled subprocess -- stalls the whole round at the
// straggler's pace. This scheduler replaces the fixed split with:
//
//   * CHUNKS: each span's trials are cut into fine-grained chunks (a chunk
//     is a run of consecutive trials of one span, carrying its absolute
//     trial positions and result slots);
//   * QUEUES: chunks are dealt onto per-replica deques, contiguous in
//     serial order, sized proportional to each replica's measured speed;
//   * STEALING: a worker whose own deque drains steals from the back of
//     the deque predicted to finish last (queued trials x that replica's
//     latency estimate), so fast replicas drain the queues stalled behind
//     stragglers. A steal only happens when it is PROFITABLE -- the
//     thief's predicted time for the chunk beats the victim's predicted
//     queue drain -- so the straggler itself never "helps" by dragging
//     chunks from fast queues back to its own pace;
//   * EWMA: per-replica trial latency is tracked as an exponentially
//     weighted moving average, fed by the substrate's own wire-level
//     timing where it exists (SubstrateCounters::trial_micros, src/proc/ and
//     src/net/) and by call-site wall clock otherwise.
//
// None of this can change a single byte of the results: chunks carry
// absolute trial indices and replicas derive all per-trial nondeterminism
// positionally (ReplicableTarget::SeekTrial), and every chunk writes its
// logs into pre-assigned slots of the round's result vector. Worker count,
// chunk boundaries, replica speeds, and the steal schedule only decide
// WHERE and WHEN a trial runs -- reports stay bit-identical to serial
// dispatch (SameDiscoveryOutcome) under any schedule.
//
// Error paths are fail-fast: the first chunk error cancels every chunk not
// yet leased by a worker (they never execute, never count), and the round
// returns the failing chunk's error -- the earliest in serial order among
// the failures actually observed. Chunks already leased (in flight) when
// the failure lands still complete and count; exact serial error
// accounting is unattainable under concurrency, but no QUEUED work is
// silently performed and billed past a failure.

#ifndef AID_EXEC_SCHEDULER_H_
#define AID_EXEC_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "core/target.h"
#include "exec/replicable.h"
#include "exec/thread_pool.h"

namespace aid {

class Telemetry;  // telemetry/telemetry.h; nullable everywhere below

/// How a replica pool spreads a round's chunks over its replicas.
enum class SchedulerPolicy : uint8_t {
  /// Fixed contiguous sharding: every replica gets an equal contiguous
  /// share up front and keeps it. The pre-work-stealing dispatcher, kept as
  /// the bench baseline and for substrates with perfectly uniform latency.
  kStatic = 0,
  /// Latency-aware work stealing (the default; see file comment).
  kWorkStealing = 1,
};

struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::kWorkStealing;

  /// Chunk granularity: a round targets about `chunks_per_worker` chunks
  /// per pool worker, so a straggler strands at most ~1/chunks_per_worker
  /// of its share when the others come stealing. More chunks = finer load
  /// balancing, more SeekTrial/dispatch overhead.
  int chunks_per_worker = 4;

  /// Floor on trials per chunk: below this, splitting costs more in
  /// dispatch overhead than it wins in balance. Chunks never span two
  /// intervention spans regardless of this value.
  int min_chunk_trials = 1;

  /// EWMA smoothing factor in (0, 1]: weight of the newest latency sample.
  /// 1 = latest sample only; smaller values smooth over transient spikes.
  double ewma_alpha = 0.25;
};

/// OK iff the options are in range (chunks_per_worker >= 1,
/// min_chunk_trials >= 1, 0 < ewma_alpha <= 1), with a message naming the
/// offending knob. The shared gate for every scheduler surface
/// (SessionBuilder::WithScheduler, TargetConfig, ParallelTarget::Create).
Status ValidateSchedulerOptions(const SchedulerOptions& options);

/// The scheduling core behind exec::ParallelTarget: owns the per-replica
/// latency estimates and cumulative dispatch counters (which persist across
/// rounds) and executes one round of chunks at a time over a ThreadPool.
///
/// Thread model: RunRound is called from the pool's driving thread only and
/// joins every worker before returning; the accessors are safe on the
/// driving thread whenever RunRound is not in flight (the same quiescence
/// argument as ParallelTarget::executions()).
class ChunkScheduler {
 public:
  /// One unit of schedulable work: `trials` consecutive trials of one span
  /// at absolute positions [first_trial, first_trial + trials), whose logs
  /// land in results[result_index].logs[log_offset ...]. The span pointer
  /// is borrowed and must outlive the round.
  struct Chunk {
    const std::vector<PredicateId>* span = nullptr;
    uint64_t first_trial = 0;
    int trials = 0;
    size_t result_index = 0;
    size_t log_offset = 0;
  };

  /// `telemetry` (nullable, non-owning) makes the scheduler first-class
  /// observable: each chunk opens a "chunk" span parented under the
  /// engine's active round span and feeds the aid_chunk_latency_us
  /// histogram, EWMAs surface as aid_replica_ewma_micros gauges, and
  /// cumulative steals as aid_replica_steals gauges -- all labeled by
  /// replica slot. Null = zero overhead.
  ChunkScheduler(SchedulerOptions options, size_t replica_count,
                 Telemetry* telemetry = nullptr);

  /// Cuts `spans` x `trials` into chunks in serial order, starting at
  /// absolute trial index `base` (span k's trials sit at base + k * trials,
  /// exactly the positions serial dispatch would use).
  std::vector<Chunk> MakeChunks(const InterventionSpans& spans, int trials,
                                uint64_t base) const;

  /// Executes `chunks` on `replicas` through `pool` (one worker per
  /// replica; a worker only ever touches its own replica), writing each
  /// chunk's logs into `*results`, whose TargetRunResult entries the caller
  /// has pre-sized (logs.resize) to receive them. On any chunk error the
  /// round fails fast: chunks not yet leased are cancelled unexecuted and
  /// the earliest failing chunk's (in serial order, among observed
  /// failures) error is returned.
  Status RunRound(ThreadPool& pool,
                  const std::vector<ReplicableTarget*>& replicas,
                  const std::vector<Chunk>& chunks,
                  std::vector<TargetRunResult>* results);

  /// Cumulative dispatch counters across every round so far: replica_trials,
  /// steals, cancelled_chunks and straggler_wait_micros of a
  /// SubstrateCounters (the rest stay zero).
  SubstrateCounters stats() const;

  /// Current latency estimate for one replica slot, microseconds per
  /// trial; 0 before the first sample or for an out-of-range slot.
  uint64_t ewma_micros(size_t replica) const {
    if (replica >= ewma_micros_.size()) return 0;
    return ewma_micros_[replica].load(std::memory_order_relaxed);
  }

  const SchedulerOptions& options() const { return options_; }

 private:
  /// Initial deal: contiguous runs of `chunks`, sized evenly (kStatic or no
  /// latency data yet) or proportional to measured replica speed
  /// (kWorkStealing), onto per-replica queues.
  std::vector<std::deque<size_t>> AssignChunks(
      const std::vector<Chunk>& chunks) const;

  /// Folds one latency sample (microseconds over `trials` trials) into a
  /// replica's EWMA.
  void RecordLatency(size_t replica, uint64_t micros, int trials);

  /// The slot with the lowest measured EWMA (slot 0 when nothing is
  /// measured yet, in which case its ewma reads 0). The shared notion of
  /// "fastest" behind the initial deal's weights, the steal profitability
  /// guard's unmeasured-victim optimism, and the single-chunk fast path.
  size_t FastestSlot() const;

  SchedulerOptions options_;

  /// Runs one chunk on `replicas[slot]`, records the latency sample and
  /// the slot counters, and writes the logs into their pre-assigned slots
  /// of `*results`. Shared by the pool workers and the single-chunk
  /// inline fast path.
  Status ExecuteChunk(size_t slot, const Chunk& chunk,
                      const std::vector<ReplicableTarget*>& replicas,
                      std::vector<TargetRunResult>* results, bool stolen);

  /// Per-replica latency estimate, us/trial. Atomic because victim
  /// selection reads other replicas' estimates while their workers update
  /// them; everything else about a slot is touched only by its own worker
  /// (during a round) or the driving thread (between rounds).
  std::vector<std::atomic<uint64_t>> ewma_micros_;

  /// Cumulative per-slot counters, written by slot workers during a round
  /// and read by the driving thread after the join (ordered by the future
  /// joins; no locking needed).
  std::vector<uint64_t> trials_run_;
  std::vector<uint64_t> chunks_run_;
  std::vector<uint64_t> steals_by_;

  /// Round-level cumulative counters, updated on the driving thread.
  uint64_t cancelled_chunks_ = 0;
  uint64_t straggler_wait_micros_ = 0;

  Telemetry* telemetry_ = nullptr;  ///< nullable; see constructor
};

}  // namespace aid

#endif  // AID_EXEC_SCHEDULER_H_
