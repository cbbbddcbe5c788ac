// BudgetOptions: the knobs of the adaptive intervention budgeter, plus the
// per-candidate confidence record the budgeted DiscoveryReport carries.
//
// The budgeter replaces the engine's fixed trials-per-intervention with a
// sequential probability ratio test (SPRT) over a per-candidate Bayesian
// posterior of "causal vs spurious": a failing trial under intervention is
// decisive (the round ends after 1 trial), while consecutive passing
// trials accumulate evidence until the posterior odds of "the failure
// really stopped" clear 1 - error_tolerance under the estimated flakiness
// rate. See docs/adaptive_budgeting.md for the model and the soundness
// argument.
//
// Dependency-light on purpose: core/engine.h embeds BudgetOptions in
// EngineOptions, so this header must not pull the engine (or anything
// above it) back in.

#ifndef AID_BUDGET_OPTIONS_H_
#define AID_BUDGET_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "predicates/predicate.h"

namespace aid {

/// Upper bound on max_trials_per_round: beyond this a "trial allocation"
/// is a typo, not a strategy (mirrors kMaxParallelism's role for workers).
inline constexpr int kMaxBudgetTrialsPerRound = 100000;

struct BudgetOptions {
  /// Master switch. Off = the engine's fixed-trial behavior, bit-identical
  /// to a build without the budgeter.
  bool enabled = false;
  /// SPRT error tolerance: the accepted probability that a round declared
  /// "stopped" was a spurious group passing by luck. Smaller = more
  /// passing trials demanded before accepting a stop. In (0, 0.5).
  double error_tolerance = 0.02;
  /// Prior that a candidate is causal before any intervention, in (0, 1).
  double causal_prior = 0.5;
  /// Hard cap on trials a single round may spend. 0 = cap at the engine's
  /// configured trials_per_intervention, which guarantees a budgeted round
  /// never costs more than the fixed-trial baseline.
  int max_trials_per_round = 0;
  /// Global execution budget across the whole discovery run; when spent,
  /// the engine stops intervening and reports best-effort verdicts plus
  /// per-candidate confidence (DiscoveryReport::budget_exhausted /
  /// ::confidence). 0 = unlimited.
  uint64_t max_executions = 0;
  /// Beta prior of the manifestation (flakiness) rate m: the probability a
  /// persisting failure actually fires in one trial. The posterior is
  /// updated only from persisting rounds (a failure proves manifestation;
  /// passes before it prove non-manifestation); stopped rounds are
  /// ambiguous and carry no flakiness information. The default leans
  /// "mostly manifests" (mean 0.8), so deterministic targets converge to
  /// 1-trial rounds quickly while genuinely flaky ones pull the estimate
  /// down and earn more trials.
  double flakiness_prior_alpha = 4.0;
  double flakiness_prior_beta = 1.0;
};

/// InvalidArgument for out-of-range knobs, naming the offending value.
Status ValidateBudgetOptions(const BudgetOptions& options);

/// One candidate's posterior at the end of a budgeted discovery run:
/// 1 = certified causal, 0 = certified spurious, in between = undecided
/// (only possible when the execution budget ran out first).
struct PredicateConfidence {
  PredicateId id = kInvalidPredicate;
  double causal_posterior = 0.0;
};

}  // namespace aid

#endif  // AID_BUDGET_OPTIONS_H_
