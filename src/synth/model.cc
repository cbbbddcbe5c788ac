#include "synth/model.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace aid {
namespace {

/// The model is deterministic: every trial yields the same log, so the one
/// execution's log is copied into all but the last slot and moved there.
std::vector<PredicateLog> ReplicateTrials(PredicateLog log, int trials) {
  std::vector<PredicateLog> logs;
  logs.reserve(static_cast<size_t>(trials));
  logs.assign(static_cast<size_t>(trials) - 1, log);
  logs.push_back(std::move(log));
  return logs;
}

}  // namespace

PredicateId GroundTruthModel::AddPredicate(int index) {
  const PredicateId id = catalog_.Intern(
      Predicate{.kind = PredKind::kSynthetic, .occurrence = index});
  predicates_.push_back(id);
  true_parents_.resize(catalog_.size());
  return id;
}

PredicateId GroundTruthModel::AddFailure() {
  AID_CHECK(failure_ == kInvalidPredicate);
  failure_ = catalog_.Intern(Predicate{.kind = PredKind::kFailure});
  true_parents_.resize(catalog_.size());
  return failure_;
}

void GroundTruthModel::SetTrueParents(PredicateId id,
                                      std::vector<PredicateId> parents) {
  const auto in_catalog = [this](PredicateId p) {
    return p >= 0 && static_cast<size_t>(p) < catalog_.size();
  };
  AID_CHECK(in_catalog(id));
  AID_CHECK(std::all_of(parents.begin(), parents.end(), in_catalog));
  // Predicates are created in id order, so a rule is forward iff every
  // parent has a smaller id. F's rule is evaluated after all others and
  // never counts; an F parent reads "not occurred" in either evaluation.
  const auto backward = [&](const std::vector<PredicateId>& rule) {
    return id != failure_ &&
           std::any_of(rule.begin(), rule.end(),
                       [id](PredicateId p) { return p >= id; });
  };
  std::optional<std::vector<PredicateId>>& slot =
      true_parents_[static_cast<size_t>(id)];
  if (slot && backward(*slot)) --backward_rules_;
  slot = std::move(parents);
  if (backward(*slot)) ++backward_rules_;
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
  // Per predicate: not (yet) occurred, occurs, or intervened.
  enum : uint8_t { kAbsent, kOccurs, kBlocked };
  std::vector<uint8_t> state(catalog_.size(), kAbsent);
  for (PredicateId id : intervened) {
    if (id >= 0 && static_cast<size_t>(id) < state.size()) {
      state[static_cast<size_t>(id)] = kBlocked;
    }
  }

  // Least fixpoint of the rules, starting from "nothing occurs". Occurrence
  // is monotone in the parents, so the passes only ever add predicates and
  // a cycle never bootstraps itself. With no backward rule every parent is
  // final before its child is evaluated, and the first pass is the answer.
  const auto rule_holds = [&](PredicateId id) {
    const auto& rule = true_parents_[static_cast<size_t>(id)];
    if (!rule) return true;  // spontaneous
    for (PredicateId parent : *rule) {
      if (state[static_cast<size_t>(parent)] != kOccurs) return false;
    }
    return true;
  };
  size_t occurred = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (PredicateId id : predicates_) {
      uint8_t& s = state[static_cast<size_t>(id)];
      if (s != kAbsent || !rule_holds(id)) continue;
      s = kOccurs;
      ++occurred;
      changed = true;
    }
    if (backward_rules_ == 0) break;
  }
  // The failure predicate cannot be intervened, only caused.
  const bool failed = failure_ == kInvalidPredicate || rule_holds(failure_);

  // Ticks are creation positions with F last; entries go out in id order
  // (F, created first by the generators, is slotted in at its id).
  PredicateLog log;
  log.failed = failed;
  log.observed.reserve(occurred + (failed ? 1 : 0));
  const Tick failure_tick = static_cast<Tick>(predicates_.size());
  bool failure_pending = failed && failure_ != kInvalidPredicate;
  Tick tick = 0;
  for (PredicateId id : predicates_) {
    if (failure_pending && failure_ < id) {
      log.observed[failure_] = {failure_tick, failure_tick};
      failure_pending = false;
    }
    if (state[static_cast<size_t>(id)] == kOccurs) {
      log.observed[id] = {tick, tick};
    }
    ++tick;
  }
  if (failure_pending) log.observed[failure_] = {failure_tick, failure_tick};
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
  result.logs = ReplicateTrials(model_->Execute(intervened), trials);
  executions_ += trials;
  return result;
}

Result<std::vector<TargetRunResult>> ModelTarget::RunInterventionsBatch(
    const InterventionSpans& spans, int trials) {
  if (trials < 1) trials = 1;
  std::vector<TargetRunResult> results(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    results[i].logs = ReplicateTrials(model_->Execute(spans[i]), trials);
    executions_ += trials;
  }
  return results;
}

}  // namespace aid
