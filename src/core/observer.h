// Observer: progress callbacks for the AID pipeline.
//
// Defined in core/ so the engine depends only on core headers; api/session.h
// includes it as part of the stable public surface. An Observer attached
// to an aid::Session (or directly to EngineOptions) is notified as the
// pipeline moves through its phases and as the intervention engine runs
// rounds and certifies predicates. This replaces the ad-hoc report plumbing
// each workload used to carry: progress printing, transcripts, and live
// metrics all hang off the same four hooks.
//
// Callbacks are invoked synchronously on the thread driving the session;
// implementations must not re-enter the session. This holds under parallel
// dispatch too: exec::ParallelTarget joins its workers inside each target
// call, and the engine delivers every callback from the driving thread
// afterwards, so round callbacks stay serialized and existing observers
// need no locking. The default implementation of every hook is a no-op, so
// observers override only what they need.

#ifndef AID_CORE_OBSERVER_H_
#define AID_CORE_OBSERVER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "predicates/predicate.h"

namespace aid {

/// The phases of a debugging session, in execution order. The engine itself
/// reports only kBranchPruning / kGiwp; aid::Session reports the rest.
enum class SessionPhase {
  kObservation,            ///< running the app, collecting predicate logs
  kStatisticalDebugging,   ///< fully-discriminative predicate filtering
  kAcDagConstruction,      ///< temporal-precedence DAG construction
  kBranchPruning,          ///< Algorithm 2 junction resolution
  kGiwp,                   ///< Algorithm 1 group intervention with pruning
  kFinished,
};

inline std::string_view SessionPhaseName(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kObservation: return "observation";
    case SessionPhase::kStatisticalDebugging: return "statistical-debugging";
    case SessionPhase::kAcDagConstruction: return "acdag-construction";
    case SessionPhase::kBranchPruning: return "branch-pruning";
    case SessionPhase::kGiwp: return "giwp";
    case SessionPhase::kFinished: return "finished";
  }
  return "unknown";
}

/// One finished intervention round, as seen by observers.
struct ObservedRound {
  uint64_t round = 0;                   ///< 1-based round number
  std::vector<PredicateId> intervened;  ///< predicates forced to success
  bool failure_stopped = false;         ///< no execution failed
  std::string_view phase;               ///< "branch" or "giwp"
};

class Observer {
 public:
  virtual ~Observer() = default;

  /// The pipeline entered `phase`.
  virtual void OnPhaseChanged(SessionPhase phase) { (void)phase; }

  /// An intervention round is about to execute with these predicates
  /// forced. Under EngineOptions::batched_dispatch each window of the scan
  /// executes as one batch first and rounds are delivered as their results
  /// are consumed, so this hook then fires after the physical execution --
  /// still immediately before the matching OnRoundFinished.
  virtual void OnRoundStarted(uint64_t round,
                              const std::vector<PredicateId>& intervened) {
    (void)round;
    (void)intervened;
  }

  /// An intervention round finished.
  virtual void OnRoundFinished(const ObservedRound& round) { (void)round; }

  /// `id` was certified causal (true) or proven spurious (false).
  virtual void OnPredicateDecided(PredicateId id, bool causal) {
    (void)id;
    (void)causal;
  }
};

}  // namespace aid

#endif  // AID_CORE_OBSERVER_H_
