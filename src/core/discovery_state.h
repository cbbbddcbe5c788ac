// DiscoveryState: the intervention engine as an explicit, resumable
// round-state machine.
//
// CausalPathDiscovery::Run() used to be one blocking loop: plan a round,
// execute it on the target, absorb the outcome, repeat. DiscoveryState
// splits that loop at the execution boundary so a driver owns the target
// I/O and the state machine owns every decision:
//
//   DiscoveryState state(dag, options, rng);
//   while (true) {
//     DiscoveryAction action = state.NextAction();     // plan
//     if (action.kind == DiscoveryAction::Kind::kDone) break;
//     ActionOutcome outcome =
//         ExecuteDiscoveryAction(state, action, target);  // the only I/O
//     state.Feed(action, outcome);                     // absorb
//   }
//   DiscoveryReport report = state.Finalize();
//
// Run() is now exactly this loop, and every decision, counter, and
// telemetry span is bit-identical (SameDiscoveryOutcome and beyond) to the
// old recursive implementation. What the split buys:
//
//   * a long-lived service (src/service/) can interleave the actions of
//     many concurrent discoveries over one shared runner fleet, one action
//     per session per scheduling turn;
//   * Serialize()/Deserialize() checkpoint a discovery between actions --
//     items, verdicts, the GIWP recursion (an explicit frame stack), the
//     branch-prune junction search, the budgeting posteriors, and the RNG
//     stream -- so a session can stop mid-discovery and resume on another
//     host from the SubjectSpec plus the state blob, reaching a report
//     bit-identical to the uninterrupted run.
//
// The codec is the repository-wide little-endian wire encoding
// (trace/serialize.h WireWriter/WireReader), the same primitives the proc/
// wire protocol and subject specs use.

#ifndef AID_CORE_DISCOVERY_STATE_H_
#define AID_CORE_DISCOVERY_STATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "causal/acdag.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/target.h"
#include "telemetry/trace.h"

namespace aid {

class WireWriter;
class WireReader;
class BeliefState;  // budget/belief.h; live iff budgeting is enabled

/// What the engine wants executed next. Planning is pure: producing an
/// action performs no target I/O (budgeted serial rounds defer their trial
/// allocation to DiscoveryState::PlanBudgetedTrials so the plan lands
/// inside the round's telemetry span, exactly where the blocking engine
/// put it).
struct DiscoveryAction {
  enum class Kind : uint8_t {
    kRound,  ///< one group intervention (serial dispatch)
    kBatch,  ///< a window of linear-scan spans as one batched dispatch
    kDone,   ///< discovery finished; call Finalize()
  };
  Kind kind = Kind::kDone;

  /// "branch" or "giwp" -- the phase label rounds are recorded under.
  const char* phase = "giwp";
  /// True when adaptive budgeting plans this action's trial counts.
  bool budgeted = false;

  /// kRound: the union of the intervened items' predicates, deduplicated.
  std::vector<PredicateId> preds;
  /// kRound, unbudgeted: executions to run (trials_per_intervention).
  int trials = 1;

  /// kBatch: one span per undecided scan item of the window, in scan
  /// order.
  InterventionSpans spans;
  /// kBatch: per-span trial allocation and whether the global execution
  /// budget funded the span (unfunded spans are not executed and their
  /// items stay undecided). Unbudgeted batches fund every span at
  /// trials_per_intervention.
  std::vector<int> alloc;
  std::vector<uint8_t> funded;
};

/// What executing one action cost and returned. The driver snapshots the
/// target's cumulative counters around the dispatch and reports deltas;
/// the state machine accumulates them so budget checks and the final
/// report never read the target directly -- which is what makes a
/// checkpoint resumable on a fresh target whose counters start elsewhere.
struct ActionOutcome {
  /// kRound: the round's (possibly early-stopped) result.
  TargetRunResult result;
  /// kRound, budgeted: trials actually executed / planned by the SPRT.
  int used = 0;
  int planned = 0;
  /// kBatch: one result per span, scan order; unfunded spans stay empty.
  std::vector<TargetRunResult> batch;
  /// kBatch, budgeted: total trials the funded spans executed.
  uint64_t budgeted_trials = 0;

  /// Target-counter deltas over this dispatch.
  SubstrateCounters delta;
};

/// Serializes `options` (everything except the observer/telemetry
/// pointers, which are process-local) onto `writer`; the service's SUBMIT
/// payload and the DiscoveryState checkpoint share this codec.
void EncodeEngineOptions(const EngineOptions& options, WireWriter& writer);
/// Decodes options written by EncodeEngineOptions. observer/telemetry come
/// back null; the resuming host supplies its own.
Result<EngineOptions> DecodeEngineOptions(WireReader& reader);

/// The resumable state machine behind CausalPathDiscovery. One instance is
/// one discovery over one AC-DAG; `dag` is borrowed and must outlive it.
class DiscoveryState {
 public:
  /// `rng` carries the caller's stream position so repeated discoveries on
  /// one CausalPathDiscovery keep consuming a single stream (TAGT's random
  /// order depends on it). Options must already be validated
  /// (ValidateDiscoveryOptions).
  DiscoveryState(const AcDag* dag, EngineOptions options, Rng rng);
  ~DiscoveryState();
  DiscoveryState(const DiscoveryState&) = delete;
  DiscoveryState& operator=(const DiscoveryState&) = delete;

  /// Plans the next action. Idempotent until Feed consumes the pending
  /// action: calling NextAction twice returns the same plan. Returns a
  /// kDone action once every item is decided (or the budget is spent).
  Result<DiscoveryAction> NextAction();

  /// Absorbs the outcome of the pending action: records the round(s),
  /// updates verdicts, pruning, budgeting posteriors, and the phase/stack
  /// bookkeeping that decides what NextAction plans next.
  Status Feed(const DiscoveryAction& action, const ActionOutcome& outcome);

  /// True once NextAction has returned (or will return) kDone.
  bool done() const { return stage_ == Stage::kFinished; }

  /// Assembles the DiscoveryReport -- causal path in topological order,
  /// chain check, counter deltas, confidence -- and folds the run's deltas
  /// into the telemetry counters, exactly as the blocking Run() did at its
  /// end. Call once, after done().
  Result<DiscoveryReport> Finalize();

  /// Budgeted serial rounds: plans the SPRT allocation for `preds` under a
  /// "budget_plan" span parented to `round_span` and clamps it to the
  /// remaining global budget. Called by the driver between opening the
  /// round span and running trials (see ExecuteDiscoveryAction).
  int PlanBudgetedTrials(const std::vector<PredicateId>& preds,
                         uint64_t round_span);

  /// Checkpoints the state between actions. FailedPrecondition while an
  /// action is pending: a checkpoint is only coherent at the Feed ->
  /// NextAction boundary.
  Result<std::string> Serialize() const;

  /// Restores a checkpoint against `dag` (rebuilt from the same
  /// SubjectSpec -- the blob carries no topology). `observer` / `telemetry`
  /// replace the checkpointed process-local pointers; the current phase
  /// change is re-announced and fresh discovery/phase spans are opened on
  /// the new tracer.
  static Result<std::unique_ptr<DiscoveryState>> Deserialize(
      const AcDag* dag, std::string_view bytes, Observer* observer,
      Telemetry* telemetry);

  const EngineOptions& options() const { return options_; }
  /// The caller's RNG stream position after the work so far (Run() copies
  /// it back so the stream continues across discoveries).
  Rng rng() const { return rng_; }
  /// Open phase span id ("branch_prune"/"giwp"); 0 without telemetry.
  uint64_t phase_span() const { return phase_span_; }
  /// 1-based index the next recorded round will get.
  uint64_t next_round_index() const { return report_.rounds + 1; }
  /// Application executions absorbed so far (the budget's spend ledger).
  uint64_t executions() const { return counters_.executions; }

 private:
  /// An engine item: a single predicate, or a branch (disjunction of the
  /// branch predicates, Algorithm 2 lines 10-12) intervened as one unit.
  struct Item {
    std::vector<PredicateId> preds;
  };
  enum class ItemDecision : uint8_t { kUndecided, kCausal, kSpurious };

  /// Where the discovery is between actions. The GIWP recursion is an
  /// explicit frame stack; the branch-prune junction search is two stages
  /// over bp_* members.
  enum class Stage : uint8_t {
    kInit = 0,        ///< nothing run yet; first NextAction seeds the run
    kBranchOuter = 1, ///< Algorithm 2: find the next junction
    kBranchInner = 2, ///< Algorithm 2: binary-search the current junction
    kGiwp = 3,        ///< Algorithm 1 over the frame stack
    kFinished = 4,
  };

  /// One suspended GIWP invocation. When a stopped round recurses into its
  /// selected half, the parent parks the round's result here and applies
  /// Definition 2 pruning only after the child frame pops -- the exact
  /// point the recursive implementation reached that code.
  struct GiwpFrame {
    std::vector<size_t> pool;  ///< indexes into items_
    bool has_pending_prune = false;
    std::vector<size_t> pending_selected;
    TargetRunResult pending_result;
  };

  /// Advances stages until an action is planned or the run is done.
  void Pump();
  void InitRun();
  /// Finds the next junction / plans the next branch round.
  void PumpBranchOuter();
  void PumpBranchInner();
  void PumpGiwp();
  /// Ends the branch phase and enters GIWP (Algorithm 3's second stage).
  void EnterGiwp();
  /// Applies a resolved junction to bp_remaining_ (Algorithm 2 line 13).
  void FinishJunction();
  /// Plans a kRound action intervening on `item_indexes` as one group.
  void PlanRound(const std::vector<size_t>& item_indexes, const char* phase);
  /// Plans a kBatch action over the next scan window of `pool` (the whole
  /// pool when a quota cannot fund the window; budget allocation included).
  void PlanBatch(const std::vector<size_t>& pool);

  void FeedRound(const DiscoveryAction& action, const ActionOutcome& outcome);
  void FeedBatch(const DiscoveryAction& action, const ActionOutcome& outcome);
  /// Budgeted-round bookkeeping shared by serial rounds: allocated/saved
  /// counters, early stops, belief updates.
  void ObserveBudgetedRound(const std::vector<PredicateId>& preds,
                            const ActionOutcome& outcome);

  bool BudgetSpent() const;
  void RecordRound(const std::vector<PredicateId>& preds,
                   const TargetRunResult& result, const char* phase);
  void Decide(size_t item, ItemDecision decision);
  void InterventionalPruning(const std::vector<size_t>& intervened,
                             const TargetRunResult& result);
  /// True iff some predicate of `item` reaches a node in `mask`.
  bool ReachesAny(const Item& item, const AcDag::NodeMask& mask) const;
  bool ItemObserved(const Item& item, const PredicateLog& log) const;
  void MakeSingletonItems(const std::vector<PredicateId>& preds);
  std::vector<size_t> UndecidedItems() const;
  Tracer* tracer() const;

  const AcDag* dag_;
  EngineOptions options_;
  Rng rng_;

  Stage stage_ = Stage::kInit;
  bool has_pending_action_ = false;
  DiscoveryAction pending_action_;
  /// kRound context the next Feed consumes (branch: tested/rest item
  /// splits; giwp: the selected half). Replanned on resume, never
  /// serialized.
  std::vector<size_t> pending_selected_;
  std::vector<size_t> pending_rest_;

  std::vector<Item> items_;
  std::vector<ItemDecision> decisions_;
  std::vector<PredicateId> causal_;
  std::vector<PredicateId> spurious_;
  std::vector<PredicateId> candidates_;
  DiscoveryReport report_;

  /// GIWP recursion as data (stage kGiwp).
  std::vector<GiwpFrame> giwp_stack_;
  /// Branch-prune search state (stages kBranchOuter/kBranchInner).
  std::vector<PredicateId> bp_remaining_;
  std::vector<size_t> bp_live_;

  /// Accumulated ActionOutcome deltas: the report's substrate counters,
  /// independent of which target executed which action.
  SubstrateCounters counters_;

  /// Budgeting state (src/budget/); live iff options_.budget.enabled.
  std::unique_ptr<BeliefState> belief_;
  bool budget_exhausted_ = false;

  /// Telemetry spans spanning the whole discovery / the open phase. Not
  /// serialized; Deserialize opens fresh ones on the new tracer.
  ScopedSpan discovery_scope_;
  ScopedSpan phase_scope_;
  uint64_t phase_span_ = 0;
  bool finalized_ = false;
};

/// The one place a discovery touches its target: fires OnRoundStarted,
/// opens the round ("round" / "round.batch") span as the active telemetry
/// parent, dispatches the action (budgeted serial rounds run trial-at-a-
/// time with first-failure early stop), and returns the outcome with the
/// target-counter deltas filled in. Shared by CausalPathDiscovery::Run()
/// and the aid_service session scheduler.
Result<ActionOutcome> ExecuteDiscoveryAction(DiscoveryState& state,
                                             const DiscoveryAction& action,
                                             InterventionTarget* target);

/// Validation shared by Run() and the service admission path: trial count
/// plus (when enabled) budget options.
Status ValidateDiscoveryOptions(const EngineOptions& options);

}  // namespace aid

#endif  // AID_CORE_DISCOVERY_STATE_H_
