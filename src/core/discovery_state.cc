#include "core/discovery_state.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "budget/belief.h"
#include "common/logging.h"
#include "telemetry/telemetry.h"
#include "trace/serialize.h"

namespace aid {
namespace {

/// v2 = the counter block in SubstrateCounters table order, trial_micros
/// added; v3 = the engine options drop the budgeter's advice priors and
/// topology discount; v4 = the budgeter's per-trial cost model (its
/// smoothing option and the belief block's estimate) and the unused
/// per-item order key go.
constexpr uint8_t kStateFormatVersion = 4;
const char* const kPhaseBranch = "branch";
const char* const kPhaseGiwp = "giwp";
/// Spans per batched linear-scan dispatch. A constant -- never a function
/// of parallelism, trial counts, timing or anything but the undecided pool
/// -- so parallel runs stay bit-identical to serial batched runs and a
/// checkpoint needs no dispatch state. Smaller windows speculate less but
/// leave workers idle; on the isolated_scan workload a window of 4 costs
/// 159 executions, 16 costs 198 and 64 costs 321 (the whole scan: 438).
constexpr size_t kScanWindow = 16;

void EncodePredVector(const std::vector<PredicateId>& v, WireWriter& w) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (PredicateId id : v) w.I32(id);
}

std::vector<PredicateId> DecodePredVector(WireReader& r) {
  const uint32_t n = r.Count(sizeof(int32_t));
  std::vector<PredicateId> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(r.I32());
  return out;
}

void EncodeIndexVector(const std::vector<size_t>& v, WireWriter& w) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (size_t i : v) w.U64(static_cast<uint64_t>(i));
}

std::vector<size_t> DecodeIndexVector(WireReader& r) {
  const uint32_t n = r.Count(sizeof(uint64_t));
  std::vector<size_t> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(static_cast<size_t>(r.U64()));
  return out;
}

void EncodeRunResult(const TargetRunResult& result, WireWriter& w) {
  w.U32(static_cast<uint32_t>(result.logs.size()));
  for (const PredicateLog& log : result.logs) EncodePredicateLog(log, w);
}

/// `catalog_size` bounds the logs' predicate ids: a hostile id would
/// otherwise size a log's occurrence bitset to gigabytes.
Result<TargetRunResult> DecodeRunResult(WireReader& r, uint32_t catalog_size) {
  TargetRunResult result;
  // failed + outcome bytes + observation count at minimum.
  const uint32_t n = r.Count(2 + sizeof(uint32_t));
  result.logs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    AID_ASSIGN_OR_RETURN(PredicateLog log, DecodePredicateLog(r, catalog_size));
    result.logs.push_back(std::move(log));
  }
  return result;
}

}  // namespace

Status ValidateDiscoveryOptions(const EngineOptions& options) {
  AID_RETURN_IF_ERROR(
      ValidateTrialsPerIntervention(options.trials_per_intervention));
  if (options.budget.enabled) {
    AID_RETURN_IF_ERROR(ValidateBudgetOptions(options.budget));
  }
  return Status::OK();
}

void EncodeEngineOptions(const EngineOptions& options, WireWriter& w) {
  w.U8(options.topological_order ? 1 : 0);
  w.U8(options.predicate_pruning ? 1 : 0);
  w.U8(options.branch_pruning ? 1 : 0);
  w.U8(options.linear_scan ? 1 : 0);
  w.U8(options.batched_dispatch ? 1 : 0);
  w.I32(options.trials_per_intervention);
  w.I32(options.parallelism);
  w.U64(options.seed);
  const BudgetOptions& b = options.budget;
  w.U8(b.enabled ? 1 : 0);
  w.F64(b.error_tolerance);
  w.F64(b.causal_prior);
  w.I32(b.max_trials_per_round);
  w.U64(b.max_executions);
  w.F64(b.flakiness_prior_alpha);
  w.F64(b.flakiness_prior_beta);
}

Result<EngineOptions> DecodeEngineOptions(WireReader& r) {
  EngineOptions o;
  o.topological_order = r.U8() != 0;
  o.predicate_pruning = r.U8() != 0;
  o.branch_pruning = r.U8() != 0;
  o.linear_scan = r.U8() != 0;
  o.batched_dispatch = r.U8() != 0;
  o.trials_per_intervention = r.I32();
  o.parallelism = r.I32();
  o.seed = r.U64();
  BudgetOptions& b = o.budget;
  b.enabled = r.U8() != 0;
  b.error_tolerance = r.F64();
  b.causal_prior = r.F64();
  b.max_trials_per_round = r.I32();
  b.max_executions = r.U64();
  b.flakiness_prior_alpha = r.F64();
  b.flakiness_prior_beta = r.F64();
  if (!r.ok()) return r.status();
  return o;
}

DiscoveryState::DiscoveryState(const AcDag* dag, EngineOptions options,
                               Rng rng)
    : dag_(dag), options_(options), rng_(rng) {}

DiscoveryState::~DiscoveryState() = default;

Tracer* DiscoveryState::tracer() const {
  return options_.telemetry != nullptr ? options_.telemetry->tracer()
                                       : nullptr;
}

Result<DiscoveryAction> DiscoveryState::NextAction() {
  if (finalized_) {
    return Status::FailedPrecondition("NextAction after Finalize");
  }
  if (!has_pending_action_ && stage_ != Stage::kFinished) Pump();
  if (has_pending_action_) return pending_action_;
  DiscoveryAction done;
  done.kind = DiscoveryAction::Kind::kDone;
  return done;
}

void DiscoveryState::Pump() {
  while (!has_pending_action_ && stage_ != Stage::kFinished) {
    switch (stage_) {
      case Stage::kInit:
        InitRun();
        break;
      case Stage::kBranchOuter:
        PumpBranchOuter();
        break;
      case Stage::kBranchInner:
        PumpBranchInner();
        break;
      case Stage::kGiwp:
        PumpGiwp();
        break;
      case Stage::kFinished:
        break;
    }
  }
}

void DiscoveryState::InitRun() {
  report_ = DiscoveryReport{};
  causal_.clear();
  spurious_.clear();
  discovery_scope_ = ScopedSpan(tracer(), "discovery");

  candidates_.clear();
  for (PredicateId id : dag_->nodes()) {
    if (id != dag_->failure()) candidates_.push_back(id);
  }

  belief_.reset();
  budget_exhausted_ = false;
  if (options_.budget.enabled) {
    belief_ = std::make_unique<BeliefState>(options_.budget);
    belief_->SeedCandidates(candidates_);
  }

  if (options_.branch_pruning && options_.topological_order) {
    if (options_.observer) {
      options_.observer->OnPhaseChanged(SessionPhase::kBranchPruning);
    }
    phase_scope_ = ScopedSpan(tracer(), "branch_prune", discovery_scope_.id());
    phase_span_ = phase_scope_.id();
    bp_remaining_ = candidates_;
    stage_ = Stage::kBranchOuter;
  } else {
    EnterGiwp();
  }
}

void DiscoveryState::EnterGiwp() {
  phase_scope_.End();
  phase_span_ = 0;
  if (options_.observer) {
    options_.observer->OnPhaseChanged(SessionPhase::kGiwp);
  }
  MakeSingletonItems(candidates_);
  phase_scope_ = ScopedSpan(tracer(), "giwp", discovery_scope_.id());
  phase_span_ = phase_scope_.id();
  giwp_stack_.clear();
  GiwpFrame root;
  root.pool = UndecidedItems();
  giwp_stack_.push_back(std::move(root));
  stage_ = Stage::kGiwp;
}

void DiscoveryState::PumpBranchOuter() {
  if (BudgetSpent()) {
    budget_exhausted_ = true;
    candidates_ = bp_remaining_;
    EnterGiwp();
    return;
  }
  // Iteratively reduce the AC-DAG (restricted to surviving candidates) to a
  // chain by resolving one junction at a time. The restriction is a node
  // mask over the full DAG, not a copy of it.
  AcDag::NodeMask live = dag_->MaskOf(bp_remaining_);
  dag_->AddToMask(dag_->failure(), live);
  const std::vector<PredicateId> junction_members = dag_->FirstJunction(live);
  if (junction_members.empty()) {
    candidates_ = bp_remaining_;
    EnterGiwp();
    return;
  }

  // Algorithm 2 lines 8-12: one branch per junction member P --
  // P plus all live descendants of P that descend from no other member,
  // i.e. the descendants no two members share (members are incomparable).
  const size_t words = dag_->words();
  AcDag::NodeMask reached(words, 0);
  AcDag::NodeMask shared(words, 0);  // reached by two or more members
  for (PredicateId p : junction_members) {
    const std::span<const uint64_t> desc = dag_->DescendantMask(p);
    for (size_t w = 0; w < words; ++w) {
      shared[w] |= reached[w] & desc[w];
      reached[w] |= desc[w];
    }
  }
  dag_->AddToMask(dag_->failure(), shared);
  items_.clear();
  items_.reserve(junction_members.size());
  AcDag::NodeMask branch(words);
  for (PredicateId p : junction_members) {
    const std::span<const uint64_t> desc = dag_->DescendantMask(p);
    for (size_t w = 0; w < words; ++w) {
      branch[w] = desc[w] & live[w] & ~shared[w];
    }
    Item& item = items_.emplace_back();
    item.preds.push_back(p);
    dag_->AppendMaskMembers(branch, item.preds);
  }
  decisions_.assign(items_.size(), ItemDecision::kUndecided);
  bp_live_.resize(items_.size());
  std::iota(bp_live_.begin(), bp_live_.end(), size_t{0});
  stage_ = Stage::kBranchInner;
}

void DiscoveryState::PumpBranchInner() {
  // Binary search for the (at most one) causal branch: under the
  // deterministic-effect assumption the causal path continues through one
  // branch, so log2(B) interventions resolve a B-way junction (S 6.3.1).
  if (bp_live_.size() <= 1) {
    FinishJunction();
    return;
  }
  if (BudgetSpent()) {
    budget_exhausted_ = true;
    FinishJunction();
    return;
  }
  const size_t half = (bp_live_.size() + 1) / 2;
  pending_selected_.assign(bp_live_.begin(), bp_live_.begin() + half);
  pending_rest_.assign(bp_live_.begin() + half, bp_live_.end());
  PlanRound(pending_selected_, kPhaseBranch);
}

void DiscoveryState::FinishJunction() {
  // Remove the losing branches' predicates from the candidate set. Every
  // id is a DAG node, and nodes() ascends, so its last id bounds them all.
  std::vector<bool> removed(static_cast<size_t>(dag_->nodes().back()) + 1);
  for (size_t i = 0; i < items_.size(); ++i) {
    if (decisions_[i] == ItemDecision::kSpurious) {
      for (PredicateId id : items_[i].preds) {
        removed[static_cast<size_t>(id)] = true;
      }
    }
  }
  std::vector<PredicateId> next;
  next.reserve(bp_remaining_.size());
  for (PredicateId id : bp_remaining_) {
    if (!removed[static_cast<size_t>(id)]) next.push_back(id);
  }
  if (budget_exhausted_) {
    // The budget ran out mid-junction: keep what the partial search
    // decided and stop pruning (GIWP will bail the same way).
    bp_remaining_ = std::move(next);
    candidates_ = bp_remaining_;
    EnterGiwp();
    return;
  }
  AID_CHECK(next.size() < bp_remaining_.size());  // progress is guaranteed
  bp_remaining_ = std::move(next);
  bp_live_.clear();
  stage_ = Stage::kBranchOuter;
}

void DiscoveryState::PumpGiwp() {
  while (!giwp_stack_.empty()) {
    GiwpFrame& frame = giwp_stack_.back();
    if (frame.has_pending_prune) {
      // A recursion child has popped: apply the parked round's Definition 2
      // pruning exactly where the recursive implementation applied it.
      InterventionalPruning(frame.pending_selected, frame.pending_result);
      frame.has_pending_prune = false;
      frame.pending_selected.clear();
      frame.pending_result = TargetRunResult{};
    }
    // Line 18: drop items decided in this or deeper/earlier rounds.
    frame.pool.erase(std::remove_if(frame.pool.begin(), frame.pool.end(),
                                    [&](size_t i) {
                                      return decisions_[i] !=
                                             ItemDecision::kUndecided;
                                    }),
                     frame.pool.end());
    if (frame.pool.empty()) {
      giwp_stack_.pop_back();
      continue;
    }
    if (BudgetSpent()) {
      // Best effort: leave the remaining items undecided; the report
      // carries their posteriors as confidence. Popping unwinds the
      // recursion, letting parents apply their parked prunes.
      budget_exhausted_ = true;
      giwp_stack_.pop_back();
      continue;
    }

    const bool batched =
        options_.batched_dispatch || options_.parallelism > 1;
    if (options_.linear_scan && batched) {
      PlanBatch(frame.pool);
      return;
    }

    // Line 4: the first half in (topological) order -- or a single item in
    // linear-scan mode (the D >= N/log N regime, Section 2).
    const size_t half = options_.linear_scan ? 1 : (frame.pool.size() + 1) / 2;
    pending_selected_.assign(frame.pool.begin(), frame.pool.begin() + half);
    pending_rest_.clear();
    PlanRound(pending_selected_, kPhaseGiwp);
    return;
  }
  phase_scope_.End();
  phase_span_ = 0;
  stage_ = Stage::kFinished;
}

void DiscoveryState::PlanRound(const std::vector<size_t>& item_indexes,
                               const char* phase) {
  std::vector<PredicateId> preds;
  for (size_t i : item_indexes) {
    preds.insert(preds.end(), items_[i].preds.begin(), items_[i].preds.end());
  }
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());

  pending_action_ = DiscoveryAction{};
  pending_action_.kind = DiscoveryAction::Kind::kRound;
  pending_action_.phase = phase;
  pending_action_.budgeted = options_.budget.enabled;
  pending_action_.preds = std::move(preds);
  pending_action_.trials = options_.trials_per_intervention;
  has_pending_action_ = true;
}

void DiscoveryState::PlanBatch(const std::vector<size_t>& pool) {
  // Submit the next kScanWindow undecided spans of the scan as one batch;
  // Feed consumes the results in scan order and PumpGiwp plans the next
  // window from what is still undecided, so spans that Definition 2 pruning
  // decides before their window is sent never run. Items pruning decides
  // after their window was sent keep their pruning verdict; their
  // speculative executions are the price of batching.
  std::vector<size_t> selected(
      pool.begin(), pool.begin() + std::min(pool.size(), kScanWindow));
  std::vector<int> alloc;
  std::vector<uint8_t> funded;

  // Budgeted batches: one "budget_plan" span covers the batch's allocation,
  // one SPRT requirement per span. When the global execution budget cannot
  // fund the whole window, the batch widens to the whole remaining scan and
  // spans are funded greedily in scan order; the rest are left undecided.
  // Within a batch there is no mid-span early stop -- the substrate runs
  // each span's whole allocation; that is the same batching trade-off
  // speculative executions already embody.
  if (options_.budget.enabled) {
    ScopedSpan plan_span(tracer(), "budget_plan", phase_span_);
    const int cap = options_.budget.max_trials_per_round > 0
                        ? options_.budget.max_trials_per_round
                        : options_.trials_per_intervention;
    const auto plan = [&] {
      alloc.resize(selected.size());
      uint64_t total = 0;
      for (size_t k = 0; k < selected.size(); ++k) {
        alloc[k] = belief_->PlanTrials(items_[selected[k]].preds, cap);
        total += static_cast<uint64_t>(alloc[k]);
      }
      return total;
    };
    uint64_t total = plan();
    if (options_.budget.max_executions > 0) {
      const uint64_t spent = counters_.executions;
      const uint64_t remaining =
          spent >= options_.budget.max_executions
              ? 0
              : options_.budget.max_executions - spent;
      if (total > remaining && selected.size() < pool.size()) {
        selected = pool;
        total = plan();
      }
      if (total > remaining) {
        funded.assign(selected.size(), 0);
        uint64_t left = remaining;
        for (size_t k = 0; k < selected.size(); ++k) {
          if (static_cast<uint64_t>(alloc[k]) <= left) {
            funded[k] = 1;
            left -= static_cast<uint64_t>(alloc[k]);
          }
        }
        budget_exhausted_ = true;
      }
    }
  }

  // Unbudgeted batches run the fixed trial count, and a batch the quota
  // covers funds every span.
  alloc.resize(selected.size(), options_.trials_per_intervention);
  funded.resize(selected.size(), 1);

  DiscoveryAction action;
  action.kind = DiscoveryAction::Kind::kBatch;
  action.phase = kPhaseGiwp;
  action.budgeted = options_.budget.enabled;
  action.spans.reserve(selected.size());
  for (size_t i : selected) action.spans.push_back(items_[i].preds);
  action.alloc = std::move(alloc);
  action.funded = std::move(funded);

  pending_selected_ = std::move(selected);
  pending_rest_.clear();
  pending_action_ = std::move(action);
  has_pending_action_ = true;
}

int DiscoveryState::PlanBudgetedTrials(const std::vector<PredicateId>& preds,
                                       uint64_t round_span) {
  int planned;
  {
    ScopedSpan plan_span(tracer(), "budget_plan", round_span);
    const int cap = options_.budget.max_trials_per_round > 0
                        ? options_.budget.max_trials_per_round
                        : options_.trials_per_intervention;
    planned = belief_->PlanTrials(preds, cap);
  }
  if (options_.budget.max_executions == 0) return planned;
  const uint64_t spent = counters_.executions;
  if (spent >= options_.budget.max_executions) return 1;  // callers guard
  const uint64_t remaining = options_.budget.max_executions - spent;
  if (static_cast<uint64_t>(planned) <= remaining) return planned;
  // A truncated allocation still runs (partial evidence beats none); the
  // stage pumps notice the spent budget before the next round.
  return static_cast<int>(remaining);
}

Status DiscoveryState::Feed(const DiscoveryAction& action,
                            const ActionOutcome& outcome) {
  if (!has_pending_action_) {
    return Status::FailedPrecondition(
        "Feed without a pending action (call NextAction first)");
  }
  if (action.kind != pending_action_.kind ||
      action.kind == DiscoveryAction::Kind::kDone) {
    return Status::InvalidArgument(
        "fed action does not match the pending plan");
  }
  counters_ += outcome.delta;
  if (action.kind == DiscoveryAction::Kind::kRound) {
    FeedRound(action, outcome);
  } else {
    FeedBatch(action, outcome);
  }
  has_pending_action_ = false;
  pending_action_ = DiscoveryAction{};
  pending_selected_.clear();
  pending_rest_.clear();
  return Status::OK();
}

void DiscoveryState::ObserveBudgetedRound(
    const std::vector<PredicateId>& preds, const ActionOutcome& outcome) {
  report_.budgeted_trials_allocated += static_cast<uint64_t>(outcome.used);
  report_.budgeted_trials_saved +=
      static_cast<int64_t>(options_.trials_per_intervention) - outcome.used;
  if (outcome.result.AnyFailed()) {
    if (outcome.used < outcome.planned) ++report_.budget_early_stops;
    belief_->ObservePersistingRound(outcome.used - 1);
  } else {
    belief_->ObserveStoppedRound(preds, outcome.used);
  }
}

void DiscoveryState::FeedRound(const DiscoveryAction& action,
                               const ActionOutcome& outcome) {
  if (action.budgeted) ObserveBudgetedRound(action.preds, outcome);
  RecordRound(action.preds, outcome.result, action.phase);
  const bool failure_stopped = !outcome.result.AnyFailed();

  if (stage_ == Stage::kBranchInner) {
    const std::vector<size_t>& losers =
        failure_stopped ? pending_rest_ : pending_selected_;
    for (size_t i : losers) Decide(i, ItemDecision::kSpurious);
    bp_live_ = failure_stopped ? pending_selected_ : pending_rest_;
    if (options_.predicate_pruning) {
      InterventionalPruning(pending_selected_, outcome.result);
      // Pruning may have decided survivors; drop them from the live set.
      bp_live_.erase(std::remove_if(bp_live_.begin(), bp_live_.end(),
                                    [&](size_t i) {
                                      return decisions_[i] ==
                                             ItemDecision::kSpurious;
                                    }),
                     bp_live_.end());
    }
    return;
  }

  AID_CHECK(stage_ == Stage::kGiwp && !giwp_stack_.empty());
  if (failure_stopped) {
    // Lines 6-12: a counterfactual cause is inside the group.
    if (pending_selected_.size() == 1) {
      Decide(pending_selected_[0], ItemDecision::kCausal);
      if (options_.predicate_pruning) {
        InterventionalPruning(pending_selected_, outcome.result);
      }
    } else {
      // Recurse into the selected half; the parent applies this round's
      // pruning after the child frame pops (the recursive order).
      GiwpFrame& parent = giwp_stack_.back();
      if (options_.predicate_pruning) {
        parent.has_pending_prune = true;
        parent.pending_selected = pending_selected_;
        parent.pending_result = outcome.result;
      }
      GiwpFrame child;
      child.pool = pending_selected_;
      giwp_stack_.push_back(std::move(child));
    }
  } else {
    // Lines 13-14: intervened predicates did not avert the failure.
    for (size_t i : pending_selected_) Decide(i, ItemDecision::kSpurious);
    if (options_.predicate_pruning) {
      InterventionalPruning(pending_selected_, outcome.result);
    }
  }
}

void DiscoveryState::FeedBatch(const DiscoveryAction& action,
                               const ActionOutcome& outcome) {
  if (options_.budget.enabled) {
    report_.budgeted_trials_allocated += outcome.budgeted_trials;
    for (size_t k = 0; k < action.spans.size(); ++k) {
      if (!action.funded[k]) continue;
      report_.budgeted_trials_saved +=
          static_cast<int64_t>(options_.trials_per_intervention) -
          action.alloc[k];
    }
  }

  for (size_t k = 0; k < action.spans.size(); ++k) {
    const size_t item = pending_selected_[k];
    if (!action.funded[k]) continue;  // unfunded span: stays undecided
    if (decisions_[item] != ItemDecision::kUndecided) {
      // Pruning answered this span before its result was consumed: its
      // executions were speculative (see DiscoveryReport).
      report_.speculative_executions += outcome.batch[k].logs.size();
      continue;
    }
    const TargetRunResult& result = outcome.batch[k];
    if (options_.observer) {
      options_.observer->OnRoundStarted(report_.rounds + 1, action.spans[k]);
    }
    RecordRound(action.spans[k], result, kPhaseGiwp);
    if (belief_ != nullptr) {
      if (result.AnyFailed()) {
        int passes = 0;
        for (const PredicateLog& log : result.logs) {
          if (log.failed) break;
          ++passes;
        }
        belief_->ObservePersistingRound(passes);
      } else {
        belief_->ObserveStoppedRound(action.spans[k],
                                     static_cast<int>(result.logs.size()));
      }
    }
    Decide(item, result.AnyFailed() ? ItemDecision::kSpurious
                                    : ItemDecision::kCausal);
    if (options_.predicate_pruning) {
      InterventionalPruning({item}, result);
    }
  }

  if (budget_exhausted_) {
    // An exhausted batch leaves its unfunded spans undecided, and the
    // leftover budget cannot cover any of them (funding is greedy over
    // every span the remainder could pay for) -- re-planning would spin.
    giwp_stack_.clear();
  }
}

bool DiscoveryState::BudgetSpent() const {
  if (!options_.budget.enabled || options_.budget.max_executions == 0) {
    return false;
  }
  return counters_.executions >= options_.budget.max_executions;
}

void DiscoveryState::RecordRound(const std::vector<PredicateId>& preds,
                                 const TargetRunResult& result,
                                 const char* phase) {
  ++report_.rounds;
  if (options_.telemetry != nullptr) {
    options_.telemetry->metrics().GetCounter("aid_rounds_total")->Add(1);
  }
  InterventionRound round;
  round.intervened = preds;
  round.failure_stopped = !result.AnyFailed();
  round.phase = phase;
  if (options_.observer) {
    ObservedRound observed;
    observed.round = report_.rounds;
    observed.intervened = preds;
    observed.failure_stopped = round.failure_stopped;
    observed.phase = phase;
    options_.observer->OnRoundFinished(observed);
  }
  report_.history.push_back(std::move(round));
}

void DiscoveryState::Decide(size_t item, ItemDecision decision) {
  AID_CHECK(decisions_[item] == ItemDecision::kUndecided);
  decisions_[item] = decision;
  const bool causal = decision == ItemDecision::kCausal;
  std::vector<PredicateId>& sink = causal ? causal_ : spurious_;
  for (PredicateId id : items_[item].preds) {
    sink.push_back(id);
    if (belief_ != nullptr) {
      // Certified verdicts pin the budgeting posterior (and, for causal
      // ones, propagate a discount over incomparable candidates).
      if (causal) {
        belief_->MarkCausal(id);
      } else {
        belief_->MarkSpurious(id);
      }
    }
    if (options_.observer) {
      options_.observer->OnPredicateDecided(id, causal);
    }
  }
}

bool DiscoveryState::ReachesAny(const Item& item,
                                const AcDag::NodeMask& mask) const {
  for (PredicateId id : item.preds) {
    const std::span<const uint64_t> row = dag_->DescendantMask(id);
    for (size_t w = 0; w < mask.size(); ++w) {
      if ((row[w] & mask[w]) != 0) return true;
    }
  }
  return false;
}

bool DiscoveryState::ItemObserved(const Item& item,
                                  const PredicateLog& log) const {
  // A branch is a disjunction over its predicates (Algorithm 2 line 10).
  for (PredicateId id : item.preds) {
    if (log.Has(id)) return true;
  }
  return false;
}

void DiscoveryState::InterventionalPruning(
    const std::vector<size_t>& intervened, const TargetRunResult& result) {
  std::vector<bool> is_intervened(items_.size());
  AcDag::NodeMask intervened_mask(dag_->words(), 0);
  for (size_t j : intervened) {
    is_intervened[j] = true;
    for (PredicateId id : items_[j].preds) dag_->AddToMask(id, intervened_mask);
  }
  for (size_t i = 0; i < items_.size(); ++i) {
    if (decisions_[i] != ItemDecision::kUndecided) continue;
    if (is_intervened[i]) continue;
    // Ancestor guard (Definition 2): an ancestor of an intervened predicate
    // may have had its causal influence muted by the intervention.
    if (ReachesAny(items_[i], intervened_mask)) continue;

    for (const PredicateLog& log : result.logs) {
      // A crashed or timed-out trial carries an empty observation set (the
      // subject's log never arrived); concluding "P was absent" from it
      // would prune soundly-causal predicates. Its failed flag still feeds
      // the group verdict (AnyFailed), just not Definition 2's absence
      // reasoning.
      if (!log.complete()) continue;
      const bool observed = ItemObserved(items_[i], log);
      if ((observed && !log.failed) || (!observed && log.failed)) {
        Decide(i, ItemDecision::kSpurious);
        break;
      }
    }
  }
}

void DiscoveryState::MakeSingletonItems(
    const std::vector<PredicateId>& preds) {
  items_.clear();
  decisions_.clear();
  std::vector<PredicateId> ordered = preds;
  if (options_.topological_order) {
    std::sort(ordered.begin(), ordered.end(),
              [&](PredicateId a, PredicateId b) {
                return dag_->TopoPosition(a) < dag_->TopoPosition(b);
              });
  } else {
    rng_.Shuffle(ordered);
  }
  items_.reserve(ordered.size());
  for (PredicateId id : ordered) items_.push_back(Item{{id}});
  decisions_.assign(items_.size(), ItemDecision::kUndecided);
}

std::vector<size_t> DiscoveryState::UndecidedItems() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < items_.size(); ++i) {
    if (decisions_[i] == ItemDecision::kUndecided) out.push_back(i);
  }
  return out;
}

Result<DiscoveryReport> DiscoveryState::Finalize() {
  if (stage_ != Stage::kFinished) {
    return Status::FailedPrecondition(
        "Finalize before the discovery is done");
  }
  if (finalized_) {
    return Status::FailedPrecondition("Finalize called twice");
  }
  finalized_ = true;

  // Assemble the causal path: causal predicates in topological order, then F
  // (Definition 1: C0 .. Cn with Cn = F).
  std::sort(causal_.begin(), causal_.end());
  causal_.erase(std::unique(causal_.begin(), causal_.end()), causal_.end());
  std::sort(causal_.begin(), causal_.end(),
            [&](PredicateId a, PredicateId b) {
              return dag_->TopoPosition(a) < dag_->TopoPosition(b);
            });
  report_.causal_path = causal_;
  report_.causal_path.push_back(dag_->failure());

  // Definition 1 sanity: the causal predicates should be totally ordered by
  // reachability. When they are not (e.g. a conjunctive root cause on
  // disjoint branches), flag the assumption violation instead of silently
  // presenting an unordered set as a chain (Section 5.1).
  report_.path_is_chain = true;
  for (size_t i = 0; i + 1 < causal_.size(); ++i) {
    if (!dag_->Reaches(causal_[i], causal_[i + 1])) {
      report_.path_is_chain = false;
      break;
    }
  }

  std::sort(spurious_.begin(), spurious_.end());
  spurious_.erase(std::unique(spurious_.begin(), spurious_.end()),
                  spurious_.end());
  report_.spurious = spurious_;
  static_cast<SubstrateCounters&>(report_) = counters_;
  report_.budget_exhausted = budget_exhausted_;
  if (belief_ != nullptr) report_.confidence = belief_->Snapshot();

  // Fold the report's own deltas into the metrics registry, so the exported
  // snapshot matches the DiscoveryReport EXACTLY (rounds were counted live
  // in RecordRound; everything else lands here, at the quiescent end of the
  // run). Substrates only feed latency histograms/EWMAs live -- totals come
  // from the same numbers the report carries.
  if (options_.telemetry != nullptr) {
    MetricsRegistry& reg = options_.telemetry->metrics();
    counters_.FoldInto(reg);
    reg.GetCounter("aid_speculative_executions_total")
        ->Add(report_.speculative_executions);
    if (options_.budget.enabled) {
      reg.GetCounter("aid_budget_trials_allocated_total")
          ->Add(report_.budgeted_trials_allocated);
      if (report_.budgeted_trials_saved > 0) {
        // Counters are monotone; a negative saving (cap raised above the
        // fixed trial count) simply adds nothing.
        reg.GetCounter("aid_budget_trials_saved_total")
            ->Add(static_cast<uint64_t>(report_.budgeted_trials_saved));
      }
      reg.GetCounter("aid_budget_early_stops_total")
          ->Add(report_.budget_early_stops);
      reg.GetGauge("aid_budget_exhausted")->Set(budget_exhausted_ ? 1 : 0);
    }
  }
  discovery_scope_.End();
  return report_;
}

Result<std::string> DiscoveryState::Serialize() const {
  if (has_pending_action_) {
    return Status::FailedPrecondition(
        "cannot checkpoint with an action in flight; Feed the pending "
        "outcome first");
  }
  if (finalized_) {
    return Status::FailedPrecondition("cannot checkpoint after Finalize");
  }
  WireWriter w;
  w.U8(kStateFormatVersion);
  EncodeEngineOptions(options_, w);
  uint64_t rng_state[Rng::kStateWords];
  rng_.SaveState(rng_state);
  for (uint64_t word : rng_state) w.U64(word);
  w.U8(static_cast<uint8_t>(stage_));
  w.U8(budget_exhausted_ ? 1 : 0);

  EncodePredVector(candidates_, w);
  EncodePredVector(causal_, w);
  EncodePredVector(spurious_, w);
  w.U32(static_cast<uint32_t>(items_.size()));
  for (const Item& item : items_) EncodePredVector(item.preds, w);
  for (ItemDecision d : decisions_) w.U8(static_cast<uint8_t>(d));

  w.U64(report_.rounds);
  w.U64(report_.speculative_executions);
  w.U64(report_.budgeted_trials_allocated);
  w.I64(report_.budgeted_trials_saved);
  w.U64(report_.budget_early_stops);
  w.U32(static_cast<uint32_t>(report_.history.size()));
  for (const InterventionRound& round : report_.history) {
    EncodePredVector(round.intervened, w);
    w.U8(round.failure_stopped ? 1 : 0);
    w.Str(round.phase);
  }

  counters_.Encode(w);

  w.U32(static_cast<uint32_t>(giwp_stack_.size()));
  for (const GiwpFrame& frame : giwp_stack_) {
    EncodeIndexVector(frame.pool, w);
    w.U8(frame.has_pending_prune ? 1 : 0);
    EncodeIndexVector(frame.pending_selected, w);
    EncodeRunResult(frame.pending_result, w);
  }
  EncodePredVector(bp_remaining_, w);
  EncodeIndexVector(bp_live_, w);

  w.U8(belief_ != nullptr ? 1 : 0);
  if (belief_ != nullptr) {
    const auto posts = belief_->ExportState();
    w.U32(static_cast<uint32_t>(posts.size()));
    for (const auto& [id, p] : posts) {
      w.I32(id);
      w.F64(p);
    }
    w.F64(belief_->flaky_alpha());
    w.F64(belief_->flaky_beta());
  }
  return w.Release();
}

Result<std::unique_ptr<DiscoveryState>> DiscoveryState::Deserialize(
    const AcDag* dag, std::string_view bytes, Observer* observer,
    Telemetry* telemetry) {
  WireReader r(bytes);
  const uint8_t version = r.U8();
  if (r.ok() && version != kStateFormatVersion) {
    return Status::InvalidArgument(
        "unsupported discovery state format version " +
        std::to_string(static_cast<int>(version)));
  }
  AID_ASSIGN_OR_RETURN(EngineOptions options, DecodeEngineOptions(r));
  options.observer = observer;
  options.telemetry = telemetry;
  AID_RETURN_IF_ERROR(ValidateDiscoveryOptions(options));
  uint64_t rng_state[Rng::kStateWords];
  for (uint64_t& word : rng_state) word = r.U64();
  Rng rng;
  rng.LoadState(rng_state);

  std::unique_ptr<DiscoveryState> state(
      new DiscoveryState(dag, options, rng));
  const uint8_t stage_byte = r.U8();
  if (stage_byte > static_cast<uint8_t>(Stage::kFinished)) {
    return Status::InvalidArgument("corrupt discovery state: bad stage " +
                                   std::to_string(stage_byte));
  }
  state->stage_ = static_cast<Stage>(stage_byte);
  state->budget_exhausted_ = r.U8() != 0;

  state->candidates_ = DecodePredVector(r);
  state->causal_ = DecodePredVector(r);
  state->spurious_ = DecodePredVector(r);
  const uint32_t item_count = r.Count(sizeof(uint32_t));
  state->items_.reserve(item_count);
  for (uint32_t i = 0; i < item_count; ++i) {
    state->items_.push_back(Item{DecodePredVector(r)});
  }
  state->decisions_.reserve(item_count);
  for (uint32_t i = 0; i < item_count; ++i) {
    const uint8_t d = r.U8();
    if (d > static_cast<uint8_t>(ItemDecision::kSpurious)) {
      return Status::InvalidArgument(
          "corrupt discovery state: bad item decision");
    }
    state->decisions_.push_back(static_cast<ItemDecision>(d));
  }

  state->report_.rounds = r.U64();
  state->report_.speculative_executions = r.U64();
  state->report_.budgeted_trials_allocated = r.U64();
  state->report_.budgeted_trials_saved = r.I64();
  state->report_.budget_early_stops = r.U64();
  const uint32_t history_count = r.Count(sizeof(uint32_t) + 1);
  state->report_.history.reserve(history_count);
  for (uint32_t i = 0; i < history_count; ++i) {
    InterventionRound round;
    round.intervened = DecodePredVector(r);
    round.failure_stopped = r.U8() != 0;
    round.phase = r.Str();
    state->report_.history.push_back(std::move(round));
  }

  state->counters_ = SubstrateCounters::Decode(r);

  const auto catalog_size = static_cast<uint32_t>(dag->catalog()->size());
  const uint32_t frame_count = r.Count(2 * sizeof(uint32_t) + 1);
  state->giwp_stack_.reserve(frame_count);
  for (uint32_t i = 0; i < frame_count; ++i) {
    GiwpFrame frame;
    frame.pool = DecodeIndexVector(r);
    frame.has_pending_prune = r.U8() != 0;
    frame.pending_selected = DecodeIndexVector(r);
    AID_ASSIGN_OR_RETURN(frame.pending_result,
                         DecodeRunResult(r, catalog_size));
    state->giwp_stack_.push_back(std::move(frame));
  }
  state->bp_remaining_ = DecodePredVector(r);
  state->bp_live_ = DecodeIndexVector(r);

  const bool has_belief = r.U8() != 0;
  std::vector<std::pair<PredicateId, double>> posts;
  double flaky_alpha = 0.0;
  double flaky_beta = 0.0;
  if (has_belief) {
    const uint32_t post_count = r.Count(sizeof(int32_t) + sizeof(double));
    posts.reserve(post_count);
    for (uint32_t i = 0; i < post_count; ++i) {
      const PredicateId id = r.I32();
      const double p = r.F64();
      posts.emplace_back(id, p);
    }
    flaky_alpha = r.F64();
    flaky_beta = r.F64();
  }
  AID_RETURN_IF_ERROR(r.Finish());

  // Index sanity: every stored item index must address items_.
  for (const GiwpFrame& frame : state->giwp_stack_) {
    for (size_t i : frame.pool) {
      if (i >= state->items_.size()) {
        return Status::InvalidArgument(
            "corrupt discovery state: GIWP pool index out of range");
      }
    }
    for (size_t i : frame.pending_selected) {
      if (i >= state->items_.size()) {
        return Status::InvalidArgument(
            "corrupt discovery state: GIWP pending index out of range");
      }
    }
  }
  for (size_t i : state->bp_live_) {
    if (i >= state->items_.size()) {
      return Status::InvalidArgument(
          "corrupt discovery state: branch live index out of range");
    }
  }
  // Id sanity: the machine indexes flag vectors and DAG rows by the ids it
  // keeps, so each must be a DAG node. (History ids are only reported.)
  const auto all_nodes = [dag](const std::vector<PredicateId>& ids) {
    return std::all_of(ids.begin(), ids.end(),
                       [dag](PredicateId id) { return dag->Contains(id); });
  };
  bool ids_ok = all_nodes(state->candidates_) && all_nodes(state->causal_) &&
                all_nodes(state->spurious_) &&
                all_nodes(state->bp_remaining_);
  for (const Item& item : state->items_) {
    ids_ok = ids_ok && all_nodes(item.preds);
  }
  if (!ids_ok) {
    return Status::InvalidArgument(
        "corrupt discovery state: predicate id not in the AC-DAG");
  }
  if (has_belief && !options.budget.enabled) {
    return Status::InvalidArgument(
        "corrupt discovery state: belief present without budgeting");
  }

  if (has_belief) {
    state->belief_ = std::make_unique<BeliefState>(options.budget);
    state->belief_->RestoreState(posts, flaky_alpha, flaky_beta);
  }

  // Re-anchor the process-local machinery the blob deliberately omits:
  // fresh discovery/phase spans on the new tracer, and the current phase
  // re-announced to the new observer.
  if (state->stage_ != Stage::kInit && state->stage_ != Stage::kFinished) {
    Tracer* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
    state->discovery_scope_ = ScopedSpan(tracer, "discovery");
    const bool in_branch = state->stage_ == Stage::kBranchOuter ||
                           state->stage_ == Stage::kBranchInner;
    if (observer != nullptr) {
      observer->OnPhaseChanged(in_branch ? SessionPhase::kBranchPruning
                                         : SessionPhase::kGiwp);
    }
    state->phase_scope_ =
        ScopedSpan(tracer, in_branch ? "branch_prune" : "giwp",
                   state->discovery_scope_.id());
    state->phase_span_ = state->phase_scope_.id();
  } else if (state->stage_ == Stage::kFinished) {
    Tracer* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
    state->discovery_scope_ = ScopedSpan(tracer, "discovery");
  }
  return state;
}

Result<ActionOutcome> ExecuteDiscoveryAction(DiscoveryState& state,
                                             const DiscoveryAction& action,
                                             InterventionTarget* target) {
  const EngineOptions& options = state.options();
  Telemetry* telemetry = options.telemetry;
  Tracer* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;

  ActionOutcome outcome;
  const SubstrateCounters before = target->counters();
  Status run_status = Status::OK();

  if (action.kind == DiscoveryAction::Kind::kRound) {
    if (options.observer) {
      options.observer->OnRoundStarted(state.next_round_index(),
                                       action.preds);
    }
    // The round span is published as the ACTIVE PARENT while the dispatch
    // is in flight: worker threads (and the wire clients under them) parent
    // their chunk/trial spans under it without the engine threading ids
    // through the InterventionTarget interface. Rounds are serial, so one
    // slot suffices.
    ScopedSpan round_span;
    if (telemetry != nullptr && tracer != nullptr) {
      round_span = ScopedSpan(tracer, "round", state.phase_span());
      telemetry->SetActiveParent(round_span.id());
    }
    if (!action.budgeted) {
      Result<TargetRunResult> result =
          target->RunIntervened(action.preds, action.trials);
      if (!result.ok()) {
        run_status = result.status();
      } else {
        outcome.result = std::move(*result);
      }
    } else {
      // Trials run one at a time so a failing trial -- decisive proof the
      // group is spurious -- ends the round immediately. Replicable targets
      // make this equivalent, trial for trial, to one RunIntervened(preds,
      // k) call truncated at the failure.
      outcome.planned = state.PlanBudgetedTrials(action.preds,
                                                 round_span.id());
      bool failed = false;
      while (outcome.used < outcome.planned && !failed) {
        Result<TargetRunResult> one = target->RunIntervened(action.preds, 1);
        if (!one.ok()) {
          run_status = one.status();
          break;
        }
        outcome.used +=
            one->logs.empty() ? 1 : static_cast<int>(one->logs.size());
        for (PredicateLog& log : one->logs) {
          failed = failed || log.failed;
          outcome.result.logs.push_back(std::move(log));
        }
      }
    }
    if (telemetry != nullptr) telemetry->SetActiveParent(0);
    round_span.End();
  } else if (action.kind == DiscoveryAction::Kind::kBatch) {
    // One "round.batch" span covers the whole batched dispatch (the
    // decisions it feeds are consumed by Feed, outside the span); like the
    // round span, it is the active parent for substrate-side spans.
    ScopedSpan batch_span;
    if (telemetry != nullptr && tracer != nullptr) {
      batch_span = ScopedSpan(tracer, "round.batch", state.phase_span());
      telemetry->SetActiveParent(batch_span.id());
    }
    outcome.batch.resize(action.spans.size());
    // Submit one sub-batch per distinct allocation (the batch interface
    // takes a single trial count), then map results back to scan order.
    // Unbudgeted batches fund every span at one count: a single call.
    std::map<int, std::vector<size_t>> buckets;
    for (size_t k = 0; k < action.spans.size(); ++k) {
      if (action.funded[k]) buckets[action.alloc[k]].push_back(k);
    }
    for (const auto& [trials, indexes] : buckets) {
      InterventionSpans sub;
      sub.reserve(indexes.size());
      for (size_t k : indexes) sub.push_back(action.spans[k]);
      Result<std::vector<TargetRunResult>> batch =
          target->RunInterventionsBatch(sub, trials);
      if (!batch.ok()) {
        run_status = batch.status();
        break;
      }
      if (batch->size() != indexes.size()) {
        // Backends are third-party code; a contract violation is their
        // runtime error, not our programming error.
        run_status = Status::Internal(
            "RunInterventionsBatch returned " +
            std::to_string(batch->size()) + " results for " +
            std::to_string(sub.size()) + " spans");
        break;
      }
      for (size_t j = 0; j < indexes.size(); ++j) {
        outcome.budgeted_trials += (*batch)[j].logs.size();
        outcome.batch[indexes[j]] = std::move((*batch)[j]);
      }
    }
    if (telemetry != nullptr) telemetry->SetActiveParent(0);
    batch_span.End();
  } else {
    return Status::InvalidArgument("cannot execute a kDone action");
  }
  AID_RETURN_IF_ERROR(run_status);

  outcome.delta = target->counters() - before;
  return outcome;
}

}  // namespace aid
