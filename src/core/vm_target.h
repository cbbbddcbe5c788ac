// VmTarget: an InterventionTarget backed by a real VM program.
//
// Owns the full observation pipeline of the paper's Figure 1:
//   1. run the instrumented program across seeds until enough successful and
//      failed executions are collected (the "50 + 50 runs" of Section 7);
//   2. group failures by signature and keep the dominant group (paper
//      Assumption 1 discussion: failure trackers bucket failures by
//      metadata; AID treats each group separately);
//   3. extract predicate logs (aid::predicates);
//   4. on demand, build the AC-DAG over the fully-discriminative, safely
//      intervenable predicates (aid::sd + aid::inject + aid::causal).
//
// RunIntervened recompiles the requested predicates into fault injections
// and re-executes the program on known-failing seeds, so a persisting root
// cause has every chance to re-manifest (footnote 1 of the paper).

#ifndef AID_CORE_VM_TARGET_H_
#define AID_CORE_VM_TARGET_H_

#include <memory>
#include <vector>

#include "causal/acdag.h"
#include "core/target.h"
#include "exec/replicable.h"
#include "predicates/extractor.h"
#include "runtime/program.h"
#include "runtime/vm.h"

namespace aid {

struct VmTargetOptions {
  /// First seed of the observation scan; seeds increase from here.
  uint64_t first_seed = 1;
  /// Observation stops once both quotas are met.
  int min_successes = 50;
  int min_failures = 50;
  /// Hard cap on scanned seeds (programs may fail rarely).
  int max_seed_scan = 20000;
  ExtractionOptions extraction;
  VmOptions vm;
};

class VmTarget : public ReplicableTarget {
 public:
  /// Runs the observation phase. Fails if the seed scan cannot produce the
  /// requested mix of successful and failed executions.
  static Result<std::unique_ptr<VmTarget>> Create(const Program* program,
                                                  const VmTargetOptions& options);

  /// Builds the AC-DAG: fully-discriminative predicates, minus those that
  /// cannot be safely intervened (Section 3.3), minus those with no path to
  /// the failure predicate (Section 4).
  Result<AcDag> BuildAcDag(
      const PrecedenceConfig& config = PrecedenceConfig::Default()) const;

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override;

  /// Replica for parallel dispatch: copies the frozen observation state
  /// (extractor catalog + baselines, failing seeds, primary signature)
  /// without re-running the seed scan. Each replica recompiles intervention
  /// plans and runs its own VM, so replicas execute concurrently without
  /// sharing mutable state; the replica's executions() counter starts at 0.
  Result<std::unique_ptr<ReplicableTarget>> Clone() const override;

  /// Positions the round-robin failing-seed cursor at the global trial
  /// index, making the VM seeds of a span a function of its position alone.
  void SeekTrial(uint64_t trial_index) override {
    intervened_runs_ = trial_index;
  }
  uint64_t trial_position() const override { return intervened_runs_; }

  uint64_t executions() const override { return executions_; }

  const PredicateExtractor& extractor() const { return extractor_; }
  const Program& program() const { return *program_; }
  /// Observation-phase predicate logs (successes relabeled per signature).
  const std::vector<PredicateLog>& observation_logs() const {
    return extractor_.logs();
  }
  int observed_failures() const { return static_cast<int>(failing_seeds_.size()); }
  const FailureSignature& primary_signature() const { return signature_; }

 private:
  VmTarget(const Program* program, const VmTargetOptions& options)
      : program_(program), options_(options), extractor_(options.extraction) {}

  const Program* program_;
  VmTargetOptions options_;
  PredicateExtractor extractor_;
  std::vector<uint64_t> failing_seeds_;
  FailureSignature signature_;
  uint64_t executions_ = 0;
  uint64_t intervened_runs_ = 0;  ///< round-robin cursor into failing seeds
};

}  // namespace aid

#endif  // AID_CORE_VM_TARGET_H_
