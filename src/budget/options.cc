#include "budget/options.h"

#include <string>

namespace aid {
namespace {

Status InUnitInterval(const char* name, double value, bool open_left,
                      bool open_right) {
  const bool left_ok = open_left ? value > 0.0 : value >= 0.0;
  const bool right_ok = open_right ? value < 1.0 : value <= 1.0;
  if (left_ok && right_ok) return Status::OK();
  return Status::InvalidArgument(
      std::string("budget options: ") + name + " must be in " +
      (open_left ? "(" : "[") + "0, 1" + (open_right ? ")" : "]") + ", got " +
      std::to_string(value));
}

}  // namespace

Status ValidateBudgetOptions(const BudgetOptions& options) {
  if (!(options.error_tolerance > 0.0 && options.error_tolerance < 0.5)) {
    return Status::InvalidArgument(
        "budget options: error_tolerance must be in (0, 0.5), got " +
        std::to_string(options.error_tolerance));
  }
  AID_RETURN_IF_ERROR(InUnitInterval("causal_prior", options.causal_prior,
                                     /*open_left=*/true, /*open_right=*/true));
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
  AID_RETURN_IF_ERROR(InUnitInterval("cost_ewma_alpha",
                                     options.cost_ewma_alpha,
                                     /*open_left=*/true,
                                     /*open_right=*/false));
  return Status::OK();
}

}  // namespace aid
