// Ground-truth synthetic applications (paper Section 7.2).
//
// A GroundTruthModel is an abstract "application" defined directly at the
// predicate level: a set of fully-discriminative predicates, a known causal
// chain from the root cause to the failure, and true-cause rules for the
// remaining (correlated but non-causal) predicates. "Executing" the model
// under an intervention propagates occurrence through the true-cause rules:
//
//   P occurs  iff  P is not intervened  and  all true parents of P occurred
//   (no parents = spontaneous: occurs unless intervened)
//
// taking the least fixpoint, so a predicate on or below a cycle of rules
// never occurs. The rules live in a dense id-indexed table (`true_parents`,
// the one rule store, which subject_spec serializes). Beside it the model
// keeps a rule index, also by id and updated by every SetTrueParents: each
// predicate's first true parent, or a sentinel when no parent is needed (no
// rule, or an empty one), and whether the rule has more parents. Execute
// runs over one byte per id, shifted up one slot so that slot 0, the
// sentinel, always reads "occurred":
//
//   occ[id] |= open[id] & occ[first parent] & (more ? the other parents : 1)
//
// in id (= creation) order. When every rule's parents precede its predicate
// (generators build rules that way), one pass is the fixpoint; otherwise
// the same pass repeats until nothing changes.
//
// The observable AC-DAG is the temporal over-approximation the generator
// also emits: it contains the true causal edges plus the merely-temporal
// ones, exactly the superset relationship of the paper's Figure 4(a)/(b).

#ifndef AID_SYNTH_MODEL_H_
#define AID_SYNTH_MODEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "causal/acdag.h"
#include "common/status.h"
#include "core/target.h"
#include "exec/replicable.h"
#include "predicates/predicate.h"

namespace aid {

class GroundTruthModel {
 public:
  GroundTruthModel() = default;

  /// Adds a predicate node; returns its id. `index` is a display index.
  PredicateId AddPredicate(int index);
  /// Adds the failure predicate (exactly once).
  PredicateId AddFailure();

  /// Declares P's true causes: P occurs iff all of `parents` occurred
  /// (conjunction). No declaration = spontaneous. A later declaration for
  /// the same P replaces the earlier one. P and its parents must be interned.
  void SetTrueParents(PredicateId id, std::vector<PredicateId> parents);

  /// Declares the counterfactual causal chain c0 -> .. -> ck (-> F): wires
  /// each element to the previous one and F to the last.
  void SetCausalChain(std::vector<PredicateId> chain);

  /// Adds an observed temporal edge (AC-DAG construction input).
  void AddTemporalEdge(PredicateId from, PredicateId to);

  /// Evaluates which predicates occur under `intervened`: one pass in
  /// creation order when every rule's parents come first, else iterated to
  /// the least fixpoint. Returns a PredicateLog (failed = F occurred) whose
  /// ticks are creation positions, with F last. Ids outside the catalog and
  /// F itself are ignored in `intervened`: F is only ever caused.
  PredicateLog Execute(const std::vector<PredicateId>& intervened) const;

  /// Builds the observable AC-DAG (temporal edges, transitively closed).
  /// The model must outlive the returned DAG (it borrows the catalog).
  Result<AcDag> BuildAcDag() const;

  const PredicateCatalog& catalog() const { return catalog_; }
  PredicateId failure() const { return failure_; }
  const std::vector<PredicateId>& predicates() const { return predicates_; }
  const std::vector<PredicateId>& causal_chain() const { return causal_chain_; }
  /// True-cause rules indexed by predicate id (nullopt = no rule declared;
  /// an empty rule is declared but spontaneous) and observed temporal
  /// edges, exposed so the model can be serialized across a process
  /// boundary (proc/subject_spec).
  const std::vector<std::optional<std::vector<PredicateId>>>& true_parents()
      const {
    return true_parents_;
  }
  const std::vector<std::pair<PredicateId, PredicateId>>& temporal_edges()
      const {
    return temporal_edges_;
  }
  PredicateId root_cause() const {
    return causal_chain_.empty() ? kInvalidPredicate : causal_chain_.front();
  }
  size_t size() const { return predicates_.size(); }

 private:
  /// Sizes the id-indexed tables to the catalog and records the newest
  /// predicate's tick (and F's, which follows every predicate).
  void GrowTables();

  PredicateCatalog catalog_;
  std::vector<PredicateId> predicates_;  ///< excludes F
  PredicateId failure_ = kInvalidPredicate;
  std::vector<std::optional<std::vector<PredicateId>>> true_parents_;
  /// The rule index (see the file comment), by id: the first true parent's
  /// slot in Execute's byte arrays (its id + 1; 0 when no parent is
  /// needed), and whether true_parents_ holds more parents after it.
  struct RuleHead {
    uint32_t first_slot = 0;
    bool more = false;
  };
  std::vector<RuleHead> rule_heads_;
  /// By id: the tick of the predicate's observation, i.e. its creation
  /// position (F's: the number of predicates, so F comes last).
  std::vector<Tick> ticks_;
  /// Rules of predicates other than F with a parent that does not precede
  /// them in creation order; Execute needs a fixpoint while any exist.
  size_t backward_rules_ = 0;
  std::vector<PredicateId> causal_chain_;
  std::vector<std::pair<PredicateId, PredicateId>> temporal_edges_;
};

/// InterventionTarget over a ground-truth model. Deterministic: one trial is
/// sufficient, and `trials` executions produce identical logs. Replicable:
/// clones share the (immutable) model and need no trial seeking.
class ModelTarget : public ReplicableTarget {
 public:
  explicit ModelTarget(const GroundTruthModel* model) : model_(model) {}

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override;
  /// Batched dispatch: evaluates every span in one pass over the model,
  /// skipping the per-span Result plumbing of the serial default.
  Result<std::vector<TargetRunResult>> RunInterventionsBatch(
      const InterventionSpans& spans, int trials) override;
  Result<std::unique_ptr<ReplicableTarget>> Clone() const override {
    return std::unique_ptr<ReplicableTarget>(new ModelTarget(model_));
  }
  uint64_t executions() const override { return executions_; }

 private:
  const GroundTruthModel* model_;
  uint64_t executions_ = 0;
};

}  // namespace aid

#endif  // AID_SYNTH_MODEL_H_
