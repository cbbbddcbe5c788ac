// BeliefState: the budgeter's per-candidate Bayesian posterior of "causal
// vs spurious", its running estimate of the target's flakiness, and the
// per-round trial allocation both of them imply.
//
// The evidence model follows the engine's decision rule (core/engine.h):
// intervening on a group that contains a causal predicate provably stops
// the failure, so
//
//   P(trial fails | group causal)   = 0    -- one failure is DECISIVE
//   P(trial passes | group spurious) = 1 - m
//
// where m is the manifestation (flakiness) rate: the probability one trial
// of a persisting failure actually fires. A round of k passing trials
// therefore multiplies the odds of "group causal" by 1 / (1-m)^k, and m
// itself is learned as a Beta posterior from persisting rounds only (a
// failing trial manifested; each pass before it did not; an all-pass round
// is ambiguous between "causal" and "spurious but lucky" and teaches
// nothing about m).
//
// Allocation is a sequential probability ratio test (SPRT): a round on
// group G keeps executing trials until either one FAILS (decisive -- the
// group is spurious) or `PlanTrials` consecutive passes have accumulated
// enough evidence that the posterior odds of "the failure really stopped"
// clear (1 - eps) / eps:
//
//       odds(G causal) / (1 - m)^k  >=  (1 - eps) / eps
//   =>  k  >=  ( ln((1-eps)/eps) - ln odds(G) ) / -ln(1 - m)
//
// with the prior odds capped at even, so a group's prior can only ever ADD
// trials relative to the flat-odds bound, never remove one. Decisive
// candidates (a near-deterministic target, once the flakiness posterior
// has learned it) get 1 trial; noisy ones more, up to a cap.
//
// Every candidate starts at the flat causal prior, and certified verdicts
// (the engine's Decide) pin posteriors to 0/1 without touching any other
// candidate. There is deliberately no side information and no topology
// propagation: because of the even-odds cap, raising a belief above 1/2
// buys nothing and lowering one can only add trials. Verdicts always come
// from interventions.

#ifndef AID_BUDGET_BELIEF_H_
#define AID_BUDGET_BELIEF_H_

#include <unordered_map>
#include <vector>

#include "budget/options.h"
#include "predicates/predicate.h"

namespace aid {

class BeliefState {
 public:
  explicit BeliefState(const BudgetOptions& options);

  /// Seeds one posterior per candidate at options.causal_prior, clamped to
  /// [0.01, 0.99] so no candidate starts near-certain. Resets any previous
  /// state.
  void SeedCandidates(const std::vector<PredicateId>& candidates);

  /// Posterior that `id` is causal; 0 for predicates never seeded.
  double posterior(PredicateId id) const;

  /// P(the group contains >= 1 causal predicate) = 1 - prod(1 - p_i),
  /// assuming independence across members.
  double GroupCausalProbability(const std::vector<PredicateId>& group) const;

  /// Posterior mean of the manifestation rate m, clamped inside (0, 1) so
  /// log-likelihoods stay finite.
  double flakiness() const;

  /// A round whose failure persisted: `passes_before_failure` trials
  /// passed, then one failed. Updates only the flakiness posterior -- the
  /// group verdict itself arrives through MarkSpurious.
  void ObservePersistingRound(int passes_before_failure);

  /// A round of `passes` all-passing trials on `group`: scales the member
  /// posteriors up by the Bayes factor 1 / (p_G + (1 - p_G)(1-m)^passes).
  void ObserveStoppedRound(const std::vector<PredicateId>& group, int passes);

  /// SPRT pass requirement for one round on `group`, clamped to [1, cap].
  int PlanTrials(const std::vector<PredicateId>& group, int cap) const;

  /// Certified verdicts (the engine's Decide): pin the posterior to 1 / 0.
  void MarkCausal(PredicateId id);
  void MarkSpurious(PredicateId id);

  /// Every seeded candidate's posterior, ascending by id -- the
  /// DiscoveryReport::confidence payload.
  std::vector<PredicateConfidence> Snapshot() const;

  /// Checkpoint support (core/discovery_state.h). ExportState returns every
  /// posterior ascending by id; RestoreState replaces the posterior table
  /// and the flakiness Beta posterior wholesale. The options are
  /// reconstructed by the owner, not carried here.
  std::vector<std::pair<PredicateId, double>> ExportState() const;
  void RestoreState(const std::vector<std::pair<PredicateId, double>>& posts,
                    double flaky_alpha, double flaky_beta);
  double flaky_alpha() const { return flaky_alpha_; }
  double flaky_beta() const { return flaky_beta_; }

 private:
  BudgetOptions options_;
  std::unordered_map<PredicateId, double> posterior_;
  /// Beta posterior of the manifestation rate.
  double flaky_alpha_;
  double flaky_beta_;
};

}  // namespace aid

#endif  // AID_BUDGET_BELIEF_H_
