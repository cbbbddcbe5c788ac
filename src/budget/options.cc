#include "budget/options.h"

#include <string>

namespace aid {

Status ValidateBudgetOptions(const BudgetOptions& options) {
  if (!(options.error_tolerance > 0.0 && options.error_tolerance < 0.5)) {
    return Status::InvalidArgument(
        "budget options: error_tolerance must be in (0, 0.5), got " +
        std::to_string(options.error_tolerance));
  }
  if (!(options.causal_prior > 0.0 && options.causal_prior < 1.0)) {
    return Status::InvalidArgument(
        "budget options: causal_prior must be in (0, 1), got " +
        std::to_string(options.causal_prior));
  }
  if (options.max_trials_per_round < 0 ||
      options.max_trials_per_round > kMaxBudgetTrialsPerRound) {
    return Status::InvalidArgument(
        "budget options: max_trials_per_round must be in [0, " +
        std::to_string(kMaxBudgetTrialsPerRound) +
        "] (0 = cap at trials_per_intervention), got " +
        std::to_string(options.max_trials_per_round));
  }
  if (!(options.flakiness_prior_alpha > 0.0) ||
      !(options.flakiness_prior_beta > 0.0)) {
    return Status::InvalidArgument(
        "budget options: the flakiness Beta prior needs alpha > 0 and "
        "beta > 0, got alpha=" + std::to_string(options.flakiness_prior_alpha) +
        " beta=" + std::to_string(options.flakiness_prior_beta));
  }
  return Status::OK();
}

}  // namespace aid
