#include "budget/belief.h"

#include <algorithm>
#include <cmath>

namespace aid {
namespace {

/// Working posteriors stay strictly inside (0, 1) until a certified
/// verdict pins them; evidence can then never saturate a belief into
/// un-updatable certainty.
constexpr double kPosteriorFloor = 0.001;
constexpr double kPosteriorCeil = 0.999;

}  // namespace

BeliefState::BeliefState(const BudgetOptions& options)
    : options_(options),
      flaky_alpha_(options.flakiness_prior_alpha),
      flaky_beta_(options.flakiness_prior_beta) {}

void BeliefState::SeedCandidates(const std::vector<PredicateId>& candidates) {
  posterior_.clear();
  const double prior = std::clamp(options_.causal_prior, 0.01, 0.99);
  for (PredicateId id : candidates) posterior_[id] = prior;
}

double BeliefState::posterior(PredicateId id) const {
  auto it = posterior_.find(id);
  return it == posterior_.end() ? 0.0 : it->second;
}

double BeliefState::GroupCausalProbability(
    const std::vector<PredicateId>& group) const {
  double none_causal = 1.0;
  for (PredicateId id : group) {
    none_causal *= 1.0 - posterior(id);
  }
  return 1.0 - none_causal;
}

double BeliefState::flakiness() const {
  const double mean = flaky_alpha_ / (flaky_alpha_ + flaky_beta_);
  return std::clamp(mean, 0.01, 0.99);
}

void BeliefState::ObservePersistingRound(int passes_before_failure) {
  flaky_alpha_ += 1.0;  // the failing trial manifested
  if (passes_before_failure > 0) {
    flaky_beta_ += static_cast<double>(passes_before_failure);
  }
}

void BeliefState::ObserveStoppedRound(const std::vector<PredicateId>& group,
                                      int passes) {
  if (passes <= 0) return;
  const double p_group = GroupCausalProbability(group);
  if (p_group <= 0.0 || p_group >= 1.0) return;
  const double lucky = std::pow(1.0 - flakiness(), passes);
  const double p_after = p_group / (p_group + (1.0 - p_group) * lucky);
  const double scale = p_after / p_group;
  for (PredicateId id : group) {
    auto it = posterior_.find(id);
    if (it == posterior_.end()) continue;
    if (it->second <= 0.0 || it->second >= 1.0) continue;  // already pinned
    it->second = std::clamp(it->second * scale, kPosteriorFloor,
                            kPosteriorCeil);
  }
}

int BeliefState::PlanTrials(const std::vector<PredicateId>& group,
                            int cap) const {
  if (cap < 1) cap = 1;
  // The prior odds are capped at even (p <= 0.5): an unlikely-causal group
  // must pass MORE trials before a stop is believed, but an optimistic
  // prior never lowers the requirement below the flat-odds SPRT bound --
  // that keeps the per-round false-stop probability at most
  // (1-m)^k <= eps/(1-eps) however far the noisy-or group prior has been
  // pushed up by group size or earlier stopped rounds.
  const double p = std::clamp(GroupCausalProbability(group), 0.001, 0.5);
  const double m = flakiness();
  const double eps = options_.error_tolerance;
  // k >= (ln((1-eps)/eps) - ln(p/(1-p))) / -ln(1-m); see the header.
  const double needed = (std::log((1.0 - eps) / eps) -
                         std::log(p / (1.0 - p))) /
                        -std::log(1.0 - m);
  if (!(needed > 0.0)) return 1;
  const int k = static_cast<int>(std::ceil(needed - 1e-9));
  return std::clamp(k, 1, cap);
}

void BeliefState::MarkCausal(PredicateId id) { posterior_[id] = 1.0; }

void BeliefState::MarkSpurious(PredicateId id) { posterior_[id] = 0.0; }

std::vector<PredicateConfidence> BeliefState::Snapshot() const {
  std::vector<PredicateConfidence> out;
  out.reserve(posterior_.size());
  for (const auto& [id, p] : posterior_) {
    out.push_back(PredicateConfidence{id, p});
  }
  std::sort(out.begin(), out.end(),
            [](const PredicateConfidence& a, const PredicateConfidence& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<std::pair<PredicateId, double>> BeliefState::ExportState() const {
  std::vector<std::pair<PredicateId, double>> out(posterior_.begin(),
                                                  posterior_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void BeliefState::RestoreState(
    const std::vector<std::pair<PredicateId, double>>& posts,
    double flaky_alpha, double flaky_beta) {
  posterior_.clear();
  for (const auto& [id, p] : posts) posterior_[id] = p;
  flaky_alpha_ = flaky_alpha;
  flaky_beta_ = flaky_beta;
}

}  // namespace aid
