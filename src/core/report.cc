#include "core/report.h"

#include <sstream>

#include "common/strings.h"

namespace aid {
namespace {

std::string Describe(const AcDag& dag, PredicateId id,
                     const ReportRenderOptions& options) {
  if (dag.catalog() == nullptr) return StrFormat("predicate %d", id);
  return dag.catalog()->Describe(id, options.methods, options.objects);
}

}  // namespace

std::string RenderReport(const DiscoveryReport& report, const AcDag& dag,
                         const ReportRenderOptions& options) {
  std::ostringstream out;
  if (report.root_cause() == kInvalidPredicate) {
    out << "no root cause identified (no candidate predicate was "
           "counterfactual for the failure)\n";
  } else {
    out << "root cause:\n  " << Describe(dag, report.root_cause(), options)
        << "\n";
  }

  out << "causal explanation path:\n";
  for (size_t i = 0; i < report.causal_path.size(); ++i) {
    out << StrFormat("  %zu. %s\n", i + 1,
                     Describe(dag, report.causal_path[i], options).c_str());
  }
  if (!report.path_is_chain) {
    out << "WARNING: the causal predicates are not totally ordered -- the "
           "single-root-cause / deterministic-effect assumptions look "
           "violated (e.g. a conjunctive root cause); the list above is the "
           "set of counterfactual causes in topological order.\n";
  }

  if (report.speculative_executions > 0) {
    out << StrFormat(
        "interventions: %llu rounds, %llu executions (%llu speculative)\n",
        static_cast<unsigned long long>(report.rounds),
        static_cast<unsigned long long>(report.executions),
        static_cast<unsigned long long>(report.speculative_executions));
  } else {
    out << StrFormat("interventions: %llu rounds, %llu executions\n",
                     static_cast<unsigned long long>(report.rounds),
                     static_cast<unsigned long long>(report.executions));
  }

  if (report.budgeted_trials_allocated > 0 || report.budget_exhausted) {
    out << StrFormat(
        "adaptive budgeting: %llu trials run, %lld saved vs fixed-trial, "
        "%llu early stops\n",
        static_cast<unsigned long long>(report.budgeted_trials_allocated),
        static_cast<long long>(report.budgeted_trials_saved),
        static_cast<unsigned long long>(report.budget_early_stops));
  }
  if (report.budget_exhausted) {
    out << "WARNING: execution budget exhausted -- this is a best-effort "
           "report; unresolved candidates and posterior confidence:\n";
    for (const PredicateConfidence& c : report.confidence) {
      if (c.causal_posterior <= 0.0 || c.causal_posterior >= 1.0) {
        continue;  // certified verdicts are reported above
      }
      out << StrFormat("  - %s: P(causal) = %.2f\n",
                       Describe(dag, c.id, options).c_str(),
                       c.causal_posterior);
    }
  }

  if (report.respawns > 0 || report.crashed_trials > 0 ||
      report.timed_out_trials > 0) {
    out << StrFormat(
        "process isolation: %llu crashed trials, %llu timed-out trials, "
        "%llu subject respawns\n",
        static_cast<unsigned long long>(report.crashed_trials),
        static_cast<unsigned long long>(report.timed_out_trials),
        static_cast<unsigned long long>(report.respawns));
  }

  if (report.replica_trials.size() > 1) {
    // The scheduler's telemetry: how the round work actually spread over
    // the replica pool. Purely observational -- placement and stealing
    // never change the decisions above.
    out << StrFormat("parallel dispatch: %zu replicas, trials [",
                     report.replica_trials.size());
    for (size_t i = 0; i < report.replica_trials.size(); ++i) {
      if (i > 0) out << ", ";
      out << report.replica_trials[i];
    }
    out << StrFormat(
        "], %llu chunks stolen, %.1f ms straggler wait\n",
        static_cast<unsigned long long>(report.steals),
        static_cast<double>(report.straggler_wait_micros) / 1000.0);
  }

  if (options.include_spurious && !report.spurious.empty()) {
    out << "proven spurious:\n";
    for (PredicateId id : report.spurious) {
      out << "  - " << Describe(dag, id, options) << "\n";
    }
  }

  if (options.include_history) {
    out << "intervention transcript:\n";
    for (size_t i = 0; i < report.history.size(); ++i) {
      const InterventionRound& round = report.history[i];
      out << StrFormat("  %zu. [%s] {", i + 1, round.phase.c_str());
      for (size_t j = 0; j < round.intervened.size(); ++j) {
        if (j > 0) out << "; ";
        out << Describe(dag, round.intervened[j], options);
      }
      out << "} -> failure " << (round.failure_stopped ? "stopped" : "persists")
          << "\n";
    }
  }
  return out.str();
}

}  // namespace aid
