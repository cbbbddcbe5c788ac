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
  GrowTables();
  return id;
}

PredicateId GroundTruthModel::AddFailure() {
  AID_CHECK(failure_ == kInvalidPredicate);
  failure_ = catalog_.Intern(Predicate{.kind = PredKind::kFailure});
  GrowTables();
  return failure_;
}

void GroundTruthModel::GrowTables() {
  true_parents_.resize(catalog_.size());
  rule_heads_.resize(catalog_.size());
  ticks_.resize(catalog_.size());
  // A predicate interned twice keeps its last creation position, as the
  // log's entry for it did when each creation was visited in turn.
  if (!predicates_.empty()) {
    ticks_[static_cast<size_t>(predicates_.back())] =
        static_cast<Tick>(predicates_.size() - 1);
  }
  if (failure_ != kInvalidPredicate) {
    ticks_[static_cast<size_t>(failure_)] =
        static_cast<Tick>(predicates_.size());
  }
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
  if (backward(parents)) ++backward_rules_;
  rule_heads_[static_cast<size_t>(id)] = {
      .first_slot =
          parents.empty() ? 0 : static_cast<uint32_t>(parents.front()) + 1,
      .more = parents.size() > 1};
  slot = std::move(parents);
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
  // One byte per id at slot id + 1; slot 0 is the rule index's "no parent
  // needed" and always reads occurred. `open` is 0 for intervened ids and
  // for F, which the pass leaves at "not occurred" (an F parent never
  // holds); F's own rule is evaluated after the pass.
  const size_t n = catalog_.size();
  std::vector<uint8_t> open(n + 1, 1);
  for (PredicateId id : intervened) {
    if (id >= 0 && static_cast<size_t>(id) < n) {
      open[static_cast<size_t>(id) + 1] = 0;
    }
  }
  if (failure_ != kInvalidPredicate) {
    open[static_cast<size_t>(failure_) + 1] = 0;
  }
  std::vector<uint8_t> occ(n + 1, 0);
  occ[0] = 1;
  const auto rule_holds = [&](size_t id) -> uint8_t {
    const RuleHead head = rule_heads_[id];
    uint8_t holds = occ[head.first_slot];
    if (head.more) {  // rare: a conjunction of several parents
      const std::vector<PredicateId>& rule = *true_parents_[id];
      for (size_t k = 1; k < rule.size(); ++k) {
        holds &= occ[static_cast<size_t>(rule[k]) + 1];
      }
    }
    return holds;
  };

  // Least fixpoint of the rules, starting from "nothing occurs". Occurrence
  // is monotone in the parents, so the passes only ever add predicates and
  // a cycle never bootstraps itself. With no backward rule every parent is
  // final before its child is evaluated, and the first pass is the answer.
  size_t occurred = 0;
  for (bool grew = true; grew;) {
    const size_t before = occurred;
    for (size_t id = 0; id < n; ++id) {
      const uint8_t fresh = open[id + 1] & rule_holds(id) & ~occ[id + 1];
      occ[id + 1] |= fresh;
      occurred += fresh;
    }
    grew = backward_rules_ != 0 && occurred != before;
  }
  const bool failed = failure_ == kInvalidPredicate ||
                      rule_holds(static_cast<size_t>(failure_)) != 0;
  if (failed && failure_ != kInvalidPredicate) {
    occ[static_cast<size_t>(failure_) + 1] = 1;
    ++occurred;
  }

  // Entries in id order, F at its id with the last tick. Every id writes
  // the next slot and only an occurring one advances past it, so the
  // buffer holds one spare slot for a trailing non-occurring id.
  std::vector<ObservationSet::value_type> entries(occurred + 1);
  size_t next = 0;
  for (size_t id = 0; id < n; ++id) {
    const Tick tick = ticks_[id];
    entries[next] = {static_cast<PredicateId>(id), {tick, tick}};
    next += occ[id + 1];
  }
  entries.pop_back();

  PredicateLog log;
  log.failed = failed;
  log.observed.AssignSorted(std::move(entries));
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
