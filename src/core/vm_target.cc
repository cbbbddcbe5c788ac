#include "core/vm_target.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "inject/compiler.h"
#include "sd/statistical_debugger.h"

namespace aid {

Result<std::unique_ptr<VmTarget>> VmTarget::Create(
    const Program* program, const VmTargetOptions& options) {
  if (program == nullptr) {
    return Status::InvalidArgument("program must not be null");
  }
  auto target = std::unique_ptr<VmTarget>(new VmTarget(program, options));

  // Seed scan: collect successes and failures.
  Vm vm(program);
  std::vector<ExecutionTrace> successes;
  std::vector<ExecutionTrace> failures;
  std::vector<uint64_t> failure_seeds;
  int scanned = 0;
  for (uint64_t seed = options.first_seed;
       scanned < options.max_seed_scan &&
       (static_cast<int>(successes.size()) < options.min_successes ||
        static_cast<int>(failures.size()) < options.min_failures);
       ++seed, ++scanned) {
    VmOptions vm_options = options.vm;
    vm_options.seed = seed;
    AID_ASSIGN_OR_RETURN(ExecutionTrace trace, vm.Run(vm_options));
    ++target->executions_;
    if (trace.failed()) {
      if (static_cast<int>(failures.size()) < options.min_failures) {
        failure_seeds.push_back(seed);
        failures.push_back(std::move(trace));
      }
    } else if (static_cast<int>(successes.size()) < options.min_successes) {
      successes.push_back(std::move(trace));
    }
  }
  if (successes.empty() || failures.empty()) {
    return Status::FailedPrecondition(StrFormat(
        "observation scan found %zu successes and %zu failures in %d seeds; "
        "need at least one of each",
        successes.size(), failures.size(), scanned));
  }

  // Group failures by signature; keep the dominant group (Assumption 1).
  std::map<std::pair<SymbolId, SymbolId>, int> signature_counts;
  for (const auto& trace : failures) {
    const FailureSignature& sig = trace.failure_signature();
    ++signature_counts[{sig.exception_type, sig.method}];
  }
  std::pair<SymbolId, SymbolId> primary = signature_counts.begin()->first;
  for (const auto& [sig, count] : signature_counts) {
    if (count > signature_counts[primary]) primary = sig;
  }
  target->signature_ = {primary.first, primary.second};

  std::vector<ExecutionTrace> observation = std::move(successes);
  target->failing_seeds_.clear();
  for (size_t i = 0; i < failures.size(); ++i) {
    const FailureSignature& sig = failures[i].failure_signature();
    if (sig.exception_type == primary.first && sig.method == primary.second) {
      observation.push_back(std::move(failures[i]));
      target->failing_seeds_.push_back(failure_seeds[i]);
    }
  }

  AID_RETURN_IF_ERROR(target->extractor_.Observe(observation));
  return target;
}

Result<std::unique_ptr<ReplicableTarget>> VmTarget::Clone() const {
  auto clone = std::unique_ptr<VmTarget>(new VmTarget(program_, options_));
  clone->extractor_ = extractor_;
  clone->failing_seeds_ = failing_seeds_;
  clone->signature_ = signature_;
  clone->intervened_runs_ = intervened_runs_;
  return std::unique_ptr<ReplicableTarget>(std::move(clone));
}

Result<AcDag> VmTarget::BuildAcDag(const PrecedenceConfig& config) const {
  AID_ASSIGN_OR_RETURN(StatisticalDebugger sd,
                       StatisticalDebugger::Analyze(extractor_.catalog(),
                                                    extractor_.logs()));
  std::vector<PredicateId> discriminative = sd.FullyDiscriminative();

  // Safety filter (Section 3.3): drop predicates AID cannot intervene on
  // without side effects; keep the failure predicate.
  InterventionCompiler compiler(program_, &extractor_.catalog(),
                                &extractor_.baselines());
  std::vector<PredicateId> candidates;
  for (PredicateId id : discriminative) {
    if (id == extractor_.failure_predicate() ||
        compiler.IsSafelyIntervenable(id)) {
      candidates.push_back(id);
    }
  }

  return AcDag::Build(&extractor_.catalog(), extractor_.logs(), candidates,
                      extractor_.failure_predicate(), config);
}

Result<TargetRunResult> VmTarget::RunIntervened(
    const std::vector<PredicateId>& intervened, int trials) {
  if (trials < 1) trials = 1;
  InterventionCompiler compiler(program_, &extractor_.catalog(),
                                &extractor_.baselines());
  AID_ASSIGN_OR_RETURN(InterventionPlan plan, compiler.CompilePlan(intervened));

  TargetRunResult result;
  Vm vm(program_);
  for (int i = 0; i < trials; ++i) {
    // Round-robin over the known-failing seeds so the failure has every
    // chance to re-manifest unless the intervention truly represses it.
    const uint64_t seed =
        failing_seeds_[intervened_runs_ % failing_seeds_.size()];
    ++intervened_runs_;
    VmOptions vm_options = options_.vm;
    vm_options.seed = seed;
    AID_ASSIGN_OR_RETURN(ExecutionTrace trace, vm.Run(vm_options, &plan));
    ++executions_;
    AID_ASSIGN_OR_RETURN(PredicateLog log, extractor_.Evaluate(trace));
    // Only the primary failure signature counts as "the" failure; a run that
    // fails differently is a different bug (Assumption 1).
    const FailureSignature& sig = trace.failure_signature();
    const bool primary_failure =
        trace.failed() && sig.exception_type == signature_.exception_type &&
        sig.method == signature_.method;
    log.failed = primary_failure;
    if (!primary_failure) {
      log.observed.erase(extractor_.failure_predicate());
    }
    result.logs.push_back(std::move(log));
  }
  return result;
}

}  // namespace aid
