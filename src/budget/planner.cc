#include "budget/planner.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace aid {

BudgetPlanner::BudgetPlanner(const BudgetOptions& options,
                             const BeliefState* belief)
    : options_(options), belief_(belief) {}

int BudgetPlanner::PlanTrials(const std::vector<PredicateId>& group,
                              int cap) const {
  if (cap < 1) cap = 1;
  // The prior odds are capped at even (p <= 0.5): an unlikely-causal group
  // must pass MORE trials before a stop is believed, but an optimistic
  // prior never lowers the requirement below the flat-odds SPRT bound --
  // that keeps the per-round false-stop probability at most
  // (1-m)^k <= eps/(1-eps) however far the noisy-or group prior has been
  // pushed up by group size or earlier stopped rounds.
  const double p = std::clamp(belief_->GroupCausalProbability(group), 0.001,
                              0.5);
  const double m = belief_->flakiness();
  const double eps = options_.error_tolerance;
  // k >= (ln((1-eps)/eps) - ln(p/(1-p))) / -ln(1-m); see the header.
  const double needed = (std::log((1.0 - eps) / eps) -
                         std::log(p / (1.0 - p))) /
                        -std::log(1.0 - m);
  if (!(needed > 0.0)) return 1;
  const int k = static_cast<int>(std::ceil(needed - 1e-9));
  return std::clamp(k, 1, cap);
}

double BudgetPlanner::InformationGain(const std::vector<PredicateId>& group,
                                      int trials) const {
  if (trials < 1) return 0.0;
  const double p = belief_->GroupCausalProbability(group);
  if (p <= 0.0 || p >= 1.0) return 0.0;
  const double m = belief_->flakiness();
  // A round either stops (all `trials` pass: certain under H_causal,
  // (1-m)^trials under H_spurious) or persists (posterior collapses to
  // spurious, entropy 0).
  const double lucky = std::pow(1.0 - m, trials);
  const double p_stop = p + (1.0 - p) * lucky;
  const double p_causal_given_stop = p / p_stop;
  return BeliefState::BinaryEntropy(p) -
         p_stop * BeliefState::BinaryEntropy(p_causal_given_stop);
}

double BudgetPlanner::Score(const std::vector<PredicateId>& group,
                            int trials) const {
  if (trials < 1) return 0.0;
  const double per_trial = std::max(1.0, cost_ewma_);
  return InformationGain(group, trials) /
         (per_trial * static_cast<double>(trials));
}

void BudgetPlanner::ObserveRoundCost(uint64_t micros, int trials) {
  if (micros == 0 || trials < 1) return;  // unmeasured substrate
  const double sample =
      static_cast<double>(micros) / static_cast<double>(trials);
  cost_ewma_ = FoldEwma(cost_ewma_, sample, options_.cost_ewma_alpha);
}

}  // namespace aid
