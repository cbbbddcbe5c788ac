// Statistical debugging: precision/recall scoring of predicates over
// labeled predicate logs, discriminative-predicate mining, ranking.
//
// This is the paper's Section 2 baseline: given predicate logs of many
// successful and failed executions,
//
//   precision(P) = #failed runs where P / #runs where P
//   recall(P)    = #failed runs where P / #failed runs
//
// AID consumes only the *fully-discriminative* predicates (precision =
// recall = 1), which also strips trivial program invariants (their precision
// is the overall failure rate, < 1 whenever successful runs exist).

#ifndef AID_SD_STATISTICAL_DEBUGGER_H_
#define AID_SD_STATISTICAL_DEBUGGER_H_

#include <vector>

#include "common/status.h"
#include "predicates/predicate.h"

namespace aid {

/// Occurrence counts of one predicate across the observation logs.
struct PredicateStats {
  int true_in_failed = 0;
  int true_in_successful = 0;
  int failed_runs = 0;
  int successful_runs = 0;

  int true_total() const { return true_in_failed + true_in_successful; }

  /// Fraction of P-observing runs that failed (0 if P never observed).
  double precision() const {
    const int total = true_total();
    return total == 0 ? 0.0
                      : static_cast<double>(true_in_failed) / total;
  }

  /// Fraction of failed runs that observed P (0 if no failed runs).
  double recall() const {
    return failed_runs == 0
               ? 0.0
               : static_cast<double>(true_in_failed) / failed_runs;
  }

  /// Harmonic mean of precision and recall.
  double f1() const {
    const double p = precision();
    const double r = recall();
    return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }

  /// Fully discriminative: observed in every failed run and no successful
  /// run (precision = recall = 100%).
  bool fully_discriminative() const {
    return failed_runs > 0 && true_in_failed == failed_runs &&
           true_in_successful == 0;
  }
};

/// A ranked predicate, for SD-style report output.
struct RankedPredicate {
  PredicateId id = kInvalidPredicate;
  PredicateStats stats;
};

/// Computes per-predicate statistics over the observation logs.
class StatisticalDebugger {
 public:
  /// `logs` must contain at least one failed and one successful run.
  static Result<StatisticalDebugger> Analyze(
      const PredicateCatalog& catalog, const std::vector<PredicateLog>& logs);

  const PredicateStats& stats(PredicateId id) const {
    return stats_[static_cast<size_t>(id)];
  }

  int failed_runs() const { return failed_runs_; }
  int successful_runs() const { return successful_runs_; }

  /// Ids of fully-discriminative predicates, ascending.
  std::vector<PredicateId> FullyDiscriminative() const;

  /// Predicates with recall above `min_recall`, ranked by F1 descending
  /// (ties by id). This is the classic SD output a developer would sift.
  std::vector<RankedPredicate> Ranked(double min_recall = 0.0) const;

 private:
  std::vector<PredicateStats> stats_;
  int failed_runs_ = 0;
  int successful_runs_ = 0;
};

}  // namespace aid

#endif  // AID_SD_STATISTICAL_DEBUGGER_H_
