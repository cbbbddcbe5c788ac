#include "synth/model.h"

#include <algorithm>

#include "common/logging.h"

namespace aid {

PredicateId GroundTruthModel::AddPredicate(int index) {
  const PredicateId id = catalog_.Intern(
      Predicate{.kind = PredKind::kSynthetic, .occurrence = index});
  predicates_.push_back(id);
  return id;
}

PredicateId GroundTruthModel::AddFailure() {
  AID_CHECK(failure_ == kInvalidPredicate);
  failure_ = catalog_.Intern(Predicate{.kind = PredKind::kFailure});
  return failure_;
}

void GroundTruthModel::SetTrueParents(PredicateId id,
                                      std::vector<PredicateId> parents) {
  true_parents_[id] = std::move(parents);
}

void GroundTruthModel::SetCausalChain(std::vector<PredicateId> chain) {
  AID_CHECK(failure_ != kInvalidPredicate);
  AID_CHECK(!chain.empty());
  causal_chain_ = std::move(chain);
  SetTrueParents(causal_chain_.front(), {});
  for (size_t i = 1; i < causal_chain_.size(); ++i) {
    SetTrueParents(causal_chain_[i], {causal_chain_[i - 1]});
  }
  SetTrueParents(failure_, {causal_chain_.back()});
}

void GroundTruthModel::AddTemporalEdge(PredicateId from, PredicateId to) {
  temporal_edges_.emplace_back(from, to);
}

PredicateLog GroundTruthModel::Execute(
    const std::vector<PredicateId>& intervened) const {
  std::vector<bool> blocked(catalog_.size(), false);
  for (PredicateId id : intervened) {
    if (id >= 0 && static_cast<size_t>(id) < blocked.size()) {
      blocked[static_cast<size_t>(id)] = true;
    }
  }

  // Propagate occurrence to a fixpoint. The true-cause relation is acyclic
  // (generators build it over an existing order), and occurrence is
  // monotone, so iterating passes converges within the DAG depth.
  std::vector<bool> occurs(catalog_.size(), false);
  auto eval = [&](PredicateId id) {
    if (blocked[static_cast<size_t>(id)]) return false;
    auto it = true_parents_.find(id);
    if (it == true_parents_.end()) return true;  // spontaneous
    for (PredicateId parent : it->second) {
      if (!occurs[static_cast<size_t>(parent)]) return false;
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (PredicateId id : predicates_) {
      const bool now = eval(id);
      if (now != occurs[static_cast<size_t>(id)]) {
        occurs[static_cast<size_t>(id)] = now;
        changed = true;
      }
    }
  }

  PredicateLog log;
  Tick tick = 0;
  for (PredicateId id : predicates_) {
    if (occurs[static_cast<size_t>(id)]) {
      log.observed[id] = {tick, tick};
    }
    ++tick;
  }
  // The failure predicate cannot be intervened, only caused.
  auto it = true_parents_.find(failure_);
  bool failed = true;
  if (it != true_parents_.end()) {
    for (PredicateId parent : it->second) {
      if (!occurs[static_cast<size_t>(parent)]) failed = false;
    }
  }
  log.failed = failed;
  if (failed) log.observed[failure_] = {tick, tick};
  return log;
}

Result<AcDag> GroundTruthModel::BuildAcDag() const {
  std::vector<PredicateId> nodes = predicates_;
  nodes.push_back(failure_);
  std::vector<std::pair<PredicateId, PredicateId>> edges = temporal_edges_;
  // Every predicate temporally precedes the failure.
  for (PredicateId id : predicates_) edges.emplace_back(id, failure_);
  return AcDag::FromEdges(&catalog_, nodes, edges, failure_);
}

Result<TargetRunResult> ModelTarget::RunIntervened(
    const std::vector<PredicateId>& intervened, int trials) {
  TargetRunResult result;
  if (trials < 1) trials = 1;
  PredicateLog log = model_->Execute(intervened);
  executions_ += trials;
  // The model is deterministic: all trials yield the same log.
  for (int i = 0; i < trials; ++i) result.logs.push_back(log);
  return result;
}

Result<std::vector<TargetRunResult>> ModelTarget::RunInterventionsBatch(
    const InterventionSpans& spans, int trials) {
  if (trials < 1) trials = 1;
  std::vector<TargetRunResult> results(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    PredicateLog log = model_->Execute(spans[i]);
    executions_ += trials;
    results[i].logs.assign(static_cast<size_t>(trials), log);
  }
  return results;
}

}  // namespace aid
