// InterventionTarget: the engine's view of the application under debug.
//
// Algorithms 1-3 never touch the VM or the synthetic model directly; they
// re-execute an abstract target under a set of forced-false predicates and
// read back labeled predicate logs. Two backends exist:
//
//   * core::VmTarget     -- recompiles the predicate set into fault
//                           injections and re-runs the real VM program
//                           (case studies, examples);
//   * synth::ModelTarget -- propagates occurrence through a ground-truth
//                           causal model (the paper's synthetic benchmark).

#ifndef AID_CORE_TARGET_H_
#define AID_CORE_TARGET_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "predicates/predicate.h"

namespace aid {

/// Outcome of one intervention round (possibly several executions, paper
/// footnote 1: nondeterministic programs are re-run multiple times per
/// intervention).
struct TargetRunResult {
  /// One predicate log per execution; log.failed reflects that execution.
  std::vector<PredicateLog> logs;

  /// True iff any execution failed.
  bool AnyFailed() const {
    for (const auto& log : logs) {
      if (log.failed) return true;
    }
    return false;
  }
};

/// A batch of intervention spans: each span is one predicate set to force
/// during `trials` executions. The engine submits a whole round's worth of
/// spans at once where its strategy allows, so backends that can run
/// interventions concurrently (process pools, remote fleets, async VMs)
/// get the full round in a single call.
using InterventionSpans = std::vector<std::vector<PredicateId>>;

class WireWriter;
class WireReader;
class MetricsRegistry;

/// Cumulative counters of a target's execution substrate: the paper's cost
/// unit (application executions) and every substrate refinement of it.
/// In-process backends report executions only; process-isolated backends
/// (src/proc/) count subject crashes, per-trial deadline kills and the
/// respawns they triggered; remote fleets (src/net/) count dropped
/// connections and reconnects in the same buckets; replica pools (src/exec/)
/// add their dispatch schedule. The engine snapshots them around every
/// action, so DiscoveryReport carries per-run deltas. Only `executions`
/// takes part in the bit-identical contract (SameDiscoveryOutcome); the rest
/// describe substrate turbulence and scheduling, not decisions.
///
/// 64-bit on purpose: fleet-scale sessions multiply replicas by trials by
/// rounds, and a 32-bit counter silently wraps right where the numbers start
/// to matter.
struct SubstrateCounters {
  uint64_t executions = 0;        ///< application executions
  uint64_t respawns = 0;          ///< subject processes/connections replaced
  uint64_t crashed_trials = 0;    ///< trials recorded failing from a crash
  uint64_t timed_out_trials = 0;  ///< trials killed at their deadline
  /// Wall-clock the substrate spent executing intervened trials, in
  /// microseconds. Process-backed substrates time every trial at the wire
  /// (proc/client); in-process backends leave it zero and the scheduler's
  /// call-site timing stands in. Feeds the scheduler's per-replica EWMA.
  uint64_t trial_micros = 0;
  /// Chunks a fast replica executed off another replica's queue.
  uint64_t steals = 0;
  /// Chunks dropped unexecuted by fail-fast error cancellation.
  uint64_t cancelled_chunks = 0;
  /// Worker-time spent idle at round barriers waiting for the slowest
  /// replica to finish (microseconds, summed over workers and rounds).
  uint64_t straggler_wait_micros = 0;
  /// Intervened trials each replica slot has executed, in slot order. Empty
  /// on serial targets.
  std::vector<uint64_t> replica_trials;

  /// One scalar counter: its name (the DiscoveryReport field), member and
  /// exported telemetry counter.
  struct Field {
    const char* name;
    uint64_t SubstrateCounters::*member;
    const char* metric;
  };
  /// The one list of the scalar counters (defined below). Arithmetic, the
  /// wire codec and the telemetry fold all walk it, so adding a counter is
  /// one member plus one table line.
  static const Field kFields[];

  /// Element-wise sum; replica_trials grows to the longer of the two.
  SubstrateCounters& operator+=(const SubstrateCounters& other);
  /// Element-wise difference of two snapshots of one monotone target
  /// (`after` - `before`); replica_trials subtracts over the shared prefix.
  friend SubstrateCounters operator-(SubstrateCounters after,
                                     const SubstrateCounters& before);

  /// Little-endian wire codec shared by the discovery checkpoint and the
  /// service REPORT frame. Decode latches reader errors (check
  /// reader.status()) and bounds replica_trials by the bytes left.
  void Encode(WireWriter& writer) const;
  static SubstrateCounters Decode(WireReader& reader);

  /// Adds every scalar counter to its `aid_<name>_total` metric.
  void FoldInto(MetricsRegistry& metrics) const;
};

inline constexpr SubstrateCounters::Field SubstrateCounters::kFields[] = {
    {"executions", &SubstrateCounters::executions, "aid_executions_total"},
    {"respawns", &SubstrateCounters::respawns, "aid_respawns_total"},
    {"crashed_trials", &SubstrateCounters::crashed_trials,
     "aid_crashed_trials_total"},
    {"timed_out_trials", &SubstrateCounters::timed_out_trials,
     "aid_timed_out_trials_total"},
    {"trial_micros", &SubstrateCounters::trial_micros,
     "aid_trial_micros_total"},
    {"steals", &SubstrateCounters::steals, "aid_steals_total"},
    {"cancelled_chunks", &SubstrateCounters::cancelled_chunks,
     "aid_cancelled_chunks_total"},
    {"straggler_wait_micros", &SubstrateCounters::straggler_wait_micros,
     "aid_straggler_wait_micros_total"},
};

class InterventionTarget {
 public:
  virtual ~InterventionTarget() = default;

  /// Re-executes the application `trials` times while forcing every
  /// predicate in `intervened` to its successful-execution value.
  virtual Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) = 0;

  /// Runs every span in `spans` for `trials` executions each and returns
  /// one TargetRunResult per span, in order.
  ///
  /// The default implementation dispatches the spans serially through
  /// RunIntervened; backends override it to batch, parallelize, or ship the
  /// round elsewhere (exec::ParallelTarget fans spans out across a pool of
  /// target replicas, see src/exec/). Overrides must preserve the per-span
  /// semantics and the result ordering.
  virtual Result<std::vector<TargetRunResult>> RunInterventionsBatch(
      const InterventionSpans& spans, int trials) {
    std::vector<TargetRunResult> results;
    results.reserve(spans.size());
    for (const auto& span : spans) {
      AID_ASSIGN_OR_RETURN(TargetRunResult result,
                           RunIntervened(span, trials));
      results.push_back(std::move(result));
    }
    return results;
  }

  /// Total application executions performed so far (cost accounting).
  /// 64-bit: replica pools over high trial counts overflow int in real
  /// fleet-scale sessions.
  virtual uint64_t executions() const = 0;

  /// Cumulative substrate counters (see SubstrateCounters). Overrides must
  /// report `executions` equal to executions(); the default reports nothing
  /// else, which is right for in-process backends. Pooling backends sum
  /// their replicas' counters the way they sum executions().
  virtual SubstrateCounters counters() const {
    SubstrateCounters counters;
    counters.executions = executions();
    return counters;
  }
};

}  // namespace aid

#endif  // AID_CORE_TARGET_H_
