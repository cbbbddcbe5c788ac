// BudgetPlanner: turns the belief state into per-round trial allocations.
//
// Allocation is a sequential probability ratio test (SPRT): a round on
// group G keeps executing trials until either one FAILS (decisive -- the
// group is spurious, see budget/belief.h) or `PlanTrials` consecutive
// passes have accumulated enough evidence that the posterior odds of
// "the failure really stopped" clear (1 - eps) / eps:
//
//       odds(G causal) / (1 - m)^k  >=  (1 - eps) / eps
//   =>  k  >=  ( ln((1-eps)/eps) - ln odds(G) ) / -ln(1 - m)
//
// with m the estimated flakiness and the prior odds capped at even, so a
// group's prior can only ever ADD trials relative to the flat-odds bound,
// never remove one. Decisive candidates (a near-deterministic target, once
// the flakiness posterior has learned it) get 1 trial; noisy ones more,
// up to a cap.
//
// The planner also prices a round: expected information gain (entropy
// reduction over the group verdict) divided by predicted cost (an EWMA of
// the substrate's per-trial latency, fed from SubstrateCounters::trial_micros
// the same way exec/scheduler.h feeds its replica EWMAs). The score never
// reorders the engine's group schedule -- Algorithms 1-2 fix WHICH group
// is tested -- but when a global execution budget cannot cover a whole
// batched round, the highest-scoring spans are funded first and the rest
// are left undecided for the best-effort report.

#ifndef AID_BUDGET_PLANNER_H_
#define AID_BUDGET_PLANNER_H_

#include <cstdint>
#include <vector>

#include "budget/belief.h"
#include "budget/options.h"
#include "predicates/predicate.h"

namespace aid {

class BudgetPlanner {
 public:
  /// `belief` is borrowed and must outlive the planner.
  BudgetPlanner(const BudgetOptions& options, const BeliefState* belief);

  /// SPRT pass requirement for one round on `group`, clamped to [1, cap].
  int PlanTrials(const std::vector<PredicateId>& group, int cap) const;

  /// Expected entropy reduction (bits) of a `trials`-pass round on
  /// `group`'s causal-vs-spurious verdict. 0 once the verdict is certain.
  double InformationGain(const std::vector<PredicateId>& group,
                         int trials) const;

  /// Information gain per predicted microsecond: the round-funding
  /// priority when the global budget cannot cover everything.
  double Score(const std::vector<PredicateId>& group, int trials) const;

  /// Folds one finished round into the cost model: `micros` of substrate
  /// trial time over `trials` executions. micros == 0 means the substrate
  /// does not self-time (in-process backends); the sample is skipped, per
  /// the zero-means-unmeasured EWMA convention.
  void ObserveRoundCost(uint64_t micros, int trials);

  /// Predicted per-trial cost in microseconds; 0 until first measured.
  double trial_cost_micros() const { return cost_ewma_; }

  /// Checkpoint support: reinstates a cost EWMA captured by
  /// trial_cost_micros() on another planner (core/discovery_state.h).
  void RestoreCostEwma(double ewma) { cost_ewma_ = ewma; }

 private:
  BudgetOptions options_;
  const BeliefState* belief_;
  double cost_ewma_ = 0.0;
};

}  // namespace aid

#endif  // AID_BUDGET_PLANNER_H_
