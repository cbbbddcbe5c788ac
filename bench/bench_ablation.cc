// Ablation bench: quantifies the contribution of each AID design choice
// called out in DESIGN.md, beyond the Figure 8 variant comparison:
//
//   1. junction width (branch pruning's leverage grows with B);
//   2. causal-chain length D (predicate pruning's leverage grows with D,
//      matching Theorem 3's D(D-1) S2 / 2N term);
//   3. trials per intervention (robustness cost on nondeterministic
//      targets: rounds stay constant, executions scale linearly);
//   5. adaptive intervention budgeting (src/budget/): SPRT trial
//      allocation vs the fixed-trial engine, self-checked -- nonzero exit
//      unless every target reaches the identical root cause with no more
//      executions, and every flaky-backend target with STRICTLY fewer.

#include <cstdio>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench_json.h"
#include "casestudies/case_study.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace {

using namespace aid;

double AverageRounds(const GroundTruthModel& model, EngineOptions options,
                     int repeats) {
  auto session =
      SessionBuilder().WithModel(&model).WithDescriptions(false).Build();
  if (!session.ok()) return -1;
  double total = 0;
  for (int i = 0; i < repeats; ++i) {
    options.seed = static_cast<uint64_t>(i) + 1;
    auto report = session->Run(options);
    if (!report.ok()) return -1;
    total += static_cast<double>(report->discovery.rounds);
  }
  return total / repeats;
}

struct BudgetRow {
  std::string name;
  bool ok = false;
  bool root_cause_identical = false;
  uint64_t executions_fixed = 0;
  uint64_t executions_budgeted = 0;
  int64_t trials_saved = 0;
  bool require_strict = false;  ///< flaky backends must strictly improve
};

template <typename Configure>
BudgetRow RunBudgetPair(const std::string& name, int trials,
                        bool require_strict, Configure&& configure) {
  BudgetRow row;
  row.name = name;
  row.require_strict = require_strict;

  SessionBuilder fixed_builder;
  configure(fixed_builder);
  auto fixed = fixed_builder.WithTrials(trials).WithSeed(11).Build();
  if (!fixed.ok()) return row;
  auto fixed_report = fixed->Run();
  if (!fixed_report.ok()) return row;

  SessionBuilder budgeted_builder;
  configure(budgeted_builder);
  auto budgeted = budgeted_builder.WithTrials(trials)
                      .WithSeed(11)
                      .WithAdaptiveBudget()
                      .Build();
  if (!budgeted.ok()) return row;
  auto budgeted_report = budgeted->Run();
  if (!budgeted_report.ok()) return row;

  row.ok = true;
  row.root_cause_identical = budgeted_report->discovery.root_cause() ==
                                 fixed_report->discovery.root_cause() &&
                             fixed_report->discovery.has_root_cause();
  row.executions_fixed = fixed_report->discovery.executions;
  row.executions_budgeted = budgeted_report->discovery.executions;
  row.trials_saved = budgeted_report->discovery.budgeted_trials_saved;
  return row;
}

/// Runs ablation 5 and returns the number of self-check failures.
int RunBudgetingAblation(bench::BenchJson& profile) {
  std::printf("\nAblation 5: adaptive intervention budgeting (SPRT trial "
              "allocation)\n");
  std::printf("%-22s | %12s %12s %8s %7s | %s\n", "target", "exec (fixed)",
              "exec (budget)", "saved", "spend%", "same root cause");

  std::vector<BudgetRow> rows;
  // The six case studies: deterministic VM targets at the paper's 3 trials.
  // Budgeting must never lose the root cause or spend more.
  for (const std::string& key : CaseStudyKeys()) {
    rows.push_back(RunBudgetPair(key, /*trials=*/3, /*require_strict=*/false,
                                 [&](SessionBuilder& b) {
                                   b.WithCaseStudy(key);
                                 }));
  }
  // The fig7/fig8 synthetics on the flaky-model backend: the regime the
  // budgeter exists for. Identical root cause, STRICTLY fewer executions.
  std::vector<std::unique_ptr<GroundTruthModel>> keep_alive;
  for (const uint64_t seed : {3ull, 7ull, 21ull}) {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = seed;
    auto model = GenerateSyntheticApp(options);
    if (!model.ok()) continue;
    keep_alive.push_back(std::move(*model));
    const GroundTruthModel* raw = keep_alive.back().get();
    rows.push_back(RunBudgetPair(
        "fig8-flaky-seed" + std::to_string(seed), /*trials=*/5,
        /*require_strict=*/true, [raw, seed](SessionBuilder& b) {
          b.WithFlakyModel(raw, 0.8, /*seed=*/seed);
        }));
  }
  for (const int branches : {3, 6}) {
    auto model = MakeSymmetricModel(3, branches, 3, 4, /*seed=*/9);
    if (!model.ok()) continue;
    keep_alive.push_back(std::move(*model));
    const GroundTruthModel* raw = keep_alive.back().get();
    rows.push_back(RunBudgetPair(
        "fig7-flaky-B" + std::to_string(branches), /*trials=*/5,
        /*require_strict=*/true, [raw](SessionBuilder& b) {
          b.WithFlakyModel(raw, 0.8, /*seed=*/1);
        }));
  }

  uint64_t exec_fixed = 0;
  uint64_t exec_budgeted = 0;
  int failures = 0;
  for (const BudgetRow& row : rows) {
    if (!row.ok) {
      std::printf("%-22s | failed to run\n", row.name.c_str());
      ++failures;
      continue;
    }
    const double pct = row.executions_fixed == 0
                           ? 0.0
                           : 100.0 * row.executions_budgeted /
                                 row.executions_fixed;
    std::printf("%-22s | %12llu %12llu %8lld %6.1f%% | %s\n",
                row.name.c_str(), (unsigned long long)row.executions_fixed,
                (unsigned long long)row.executions_budgeted,
                (long long)row.trials_saved, pct,
                row.root_cause_identical ? "yes" : "NO");
    const bool spend_ok = row.require_strict
                              ? row.executions_budgeted < row.executions_fixed
                              : row.executions_budgeted <= row.executions_fixed;
    if (!row.root_cause_identical || !spend_ok) ++failures;
    exec_fixed += row.executions_fixed;
    exec_budgeted += row.executions_budgeted;
  }

  const double aggregate_pct =
      exec_fixed == 0 ? 0.0 : 100.0 * exec_budgeted / exec_fixed;
  profile.Metric("budget_exec_fixed", static_cast<double>(exec_fixed));
  profile.Metric("budget_exec_budgeted", static_cast<double>(exec_budgeted));
  profile.Metric("budget_spend_pct", aggregate_pct);
  std::printf("%-22s | %12llu %12llu %8s %6.1f%% |\n", "aggregate",
              (unsigned long long)exec_fixed,
              (unsigned long long)exec_budgeted, "", aggregate_pct);

  if (failures == 0) {
    std::printf("self-check: identical root causes everywhere, fewer "
                "executions on every flaky target\n");
  } else {
    std::printf("SELF-CHECK FAILED: %d budgeting row(s) lost the root cause "
                "or overspent\n", failures);
  }
  return failures;
}

}  // namespace

int main() {
  aid::bench::BenchJson profile("ablation");
  std::printf("Ablation 1: junction width B (symmetric DAG, J=2, n=3, D=3)\n");
  std::printf("%4s | %10s %10s %12s\n", "B", "AID", "AID-P", "no branches");
  for (int b : {2, 4, 8, 16}) {
    auto model = MakeSymmetricModel(2, b, 3, 3, /*seed=*/9);
    if (!model.ok()) continue;
    const double aid = AverageRounds(**model, EngineOptions::Aid(), 5);
    const double aid_p =
        AverageRounds(**model, EngineOptions::AidNoPredicatePruning(), 5);
    const double no_prune =
        AverageRounds(**model, EngineOptions::AidNoPruning(), 5);
    std::printf("%4d | %10.1f %10.1f %12.1f\n", b, aid, aid_p, no_prune);
    profile.Metric("b" + std::to_string(b) + "_aid_avg_rounds", aid);
    profile.Metric("b" + std::to_string(b) + "_aid_p_avg_rounds", aid_p);
    profile.Metric("b" + std::to_string(b) + "_no_prune_avg_rounds",
                   no_prune);
  }

  std::printf("\nAblation 2: causal chain length D (symmetric DAG, J=3, B=4, "
              "n=4)\n");
  std::printf("%4s | %10s %14s %10s\n", "D", "AID", "AID no pred-prune",
              "TAGT");
  for (int d : {1, 3, 6, 9, 12}) {
    auto model = MakeSymmetricModel(3, 4, 4, d, /*seed=*/4);
    if (!model.ok()) continue;
    const double aid = AverageRounds(**model, EngineOptions::Aid(), 5);
    const double aid_p =
        AverageRounds(**model, EngineOptions::AidNoPredicatePruning(), 5);
    const double tagt = AverageRounds(**model, EngineOptions::Tagt(), 5);
    std::printf("%4d | %10.1f %14.1f %10.1f\n", d, aid, aid_p, tagt);
    profile.Metric("d" + std::to_string(d) + "_aid_avg_rounds", aid);
    profile.Metric("d" + std::to_string(d) + "_aid_p_avg_rounds", aid_p);
    profile.Metric("d" + std::to_string(d) + "_tagt_avg_rounds", tagt);
  }

  std::printf("\nAblation 3: trials per intervention (rounds constant, "
              "executions linear)\n");
  std::printf("%7s | %7s %12s\n", "trials", "rounds", "executions");
  {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = 21;
    auto model = GenerateSyntheticApp(options);
    if (model.ok()) {
      auto session = SessionBuilder()
                         .WithModel(model->get())
                         .WithDescriptions(false)
                         .Build();
      if (session.ok()) {
        for (int trials : {1, 3, 5, 10}) {
          EngineOptions engine = EngineOptions::Aid();
          engine.trials_per_intervention = trials;
          auto report = session->Run(engine);
          if (report.ok()) {
            std::printf("%7d | %7llu %12llu\n", trials,
                        (unsigned long long)report->discovery.rounds,
                        (unsigned long long)report->discovery.executions);
            profile.Metric("trials" + std::to_string(trials) + "_rounds",
                           report->discovery.rounds);
            profile.Metric(
                "trials" + std::to_string(trials) + "_executions",
                static_cast<double>(report->discovery.executions));
          }
        }
      }
    }
  }
  const int failures = RunBudgetingAblation(profile);
  profile.Write();
  return failures;
}
