// Quickstart: debug an intermittently failing program with AID.
//
// The subject program has a classic atomicity bug: a writer thread updates
// a config version and only later updates the matching checksum, while a
// reader validates (version, checksum) consistency. When the reader lands
// inside the writer's update window, validation throws.
//
// The whole workflow -- observation, statistical debugging, AC-DAG
// construction, causality-guided interventions -- runs through the public
// aid::Session API; an Observer streams progress while the pipeline works.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "api/session.h"
#include "runtime/program.h"

using namespace aid;

namespace {

Result<Program> BuildSubjectProgram() {
  ProgramBuilder b;
  b.Global("version", 1);
  b.Global("checksum", 1);

  {
    auto m = b.Method("Main");
    m.Spawn(0, "Writer").Spawn(1, "Reader").Join(0).Join(1).Return();
  }
  {
    // The writer thread picks its moment, then publishes the new config.
    auto m = b.Method("Writer");
    m.Random(0, 2);
    const size_t late = m.JumpIfNonZeroPlaceholder(0);
    m.Delay(10);
    const size_t go = m.JumpPlaceholder();
    m.PatchTarget(late);
    m.Delay(70);
    m.PatchTarget(go);
    m.CallVoid("PublishConfig").Return();
  }
  {
    // PublishConfig bumps the version, then (non-atomically) the checksum:
    // its whole execution is the inconsistency window.
    auto m = b.Method("PublishConfig");
    m.LoadConst(1, 2)
        .StoreGlobal("version", 1)
        .Delay(30)
        .StoreGlobal("checksum", 1)
        .Return();
  }
  {
    auto m = b.Method("Reader");
    m.Random(0, 2);
    const size_t late = m.JumpIfNonZeroPlaceholder(0);
    m.Delay(30);
    const size_t go = m.JumpPlaceholder();
    m.PatchTarget(late);
    m.Delay(85);
    m.PatchTarget(go);
    m.CallVoid("ValidateConfig").Return();
  }
  {
    auto m = b.Method("ValidateConfig");
    m.SideEffectFree();
    m.LoadGlobal(0, "version")
        .LoadGlobal(1, "checksum")
        .CmpEq(2, 0, 1)
        .ThrowIfZero(2, "ChecksumMismatch")
        .Return(2);
  }
  return b.Build("Main");
}

/// Streams pipeline progress to stdout as the session works.
class ProgressPrinter : public Observer {
 public:
  void OnPhaseChanged(SessionPhase phase) override {
    std::printf("[phase] %s\n",
                std::string(SessionPhaseName(phase)).c_str());
  }
  void OnRoundFinished(const ObservedRound& round) override {
    std::printf("[round %2llu] %-6s intervened on %zu predicate(s) -> %s\n",
                static_cast<unsigned long long>(round.round),
                std::string(round.phase).c_str(),
                round.intervened.size(),
                round.failure_stopped ? "failure stopped" : "still failing");
  }
  void OnPredicateDecided(PredicateId id, bool causal) override {
    if (causal) std::printf("[decide] predicate %d is causal\n", id);
  }
};

}  // namespace

int main() {
  auto program_or = BuildSubjectProgram();
  if (!program_or.ok()) {
    std::fprintf(stderr, "program: %s\n", program_or.status().ToString().c_str());
    return 1;
  }
  const Program& program = *program_or;

  std::printf("== AID quickstart: intermittent checksum mismatch ==\n\n");

  ProgressPrinter progress;
  VmTargetOptions options;
  options.min_successes = 50;
  options.min_failures = 50;

  auto session_or = SessionBuilder()
                        .WithProgram(&program, options)
                        .WithEngine(EnginePreset::kAid)
                        .WithTrials(3)
                        .WithAdaptiveBudget()    // SPRT trial allocation
                        .WithTelemetry()         // metrics + pipeline trace
                        .WithObserver(&progress)
                        .Build();
  if (!session_or.ok()) {
    std::fprintf(stderr, "build: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  Session& session = *session_or;
  std::printf("observed %llu executions\n",
              (unsigned long long)
                  session.target().intervention_target()->executions());

  auto report_or = session.Run();
  if (!report_or.ok()) {
    std::fprintf(stderr, "run: %s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const SessionReport& report = *report_or;

  std::printf("\nstatistical debugging: %d fully-discriminative predicates\n",
              report.sd_predicates);
  std::printf("AC-DAG: %d nodes (after safety & reachability filters)\n",
              report.acdag_nodes);
  if (report.discovery.budgeted_trials_allocated > 0) {
    std::printf("adaptive budgeting: %llu trials run, %lld saved vs the "
                "fixed count, %llu early stops\n",
                (unsigned long long)report.discovery.budgeted_trials_allocated,
                (long long)report.discovery.budgeted_trials_saved,
                (unsigned long long)report.discovery.budget_early_stops);
  }
  std::printf(
      "\nAID finished in %llu intervention rounds (%llu re-executions)\n",
      (unsigned long long)report.discovery.rounds,
      (unsigned long long)report.discovery.executions);

  std::printf("\nroot cause:\n  %s\n",
              report.has_root_cause() ? report.root_cause.c_str()
                                      : "(none found)");
  std::printf("\ncausal explanation path:\n");
  for (size_t i = 0; i < report.causal_path.size(); ++i) {
    std::printf("  %zu. %s\n", i + 1, report.causal_path[i].c_str());
  }

  // Where did the run spend its effort? The telemetry snapshot carries the
  // same totals as the report plus the span tree; exporters (MetricsJson,
  // ChromeTraceJson, PrometheusText) turn it into files -- see
  // examples/remote_fleet_session.cpp and docs/telemetry.md.
  const TelemetrySnapshot telemetry = session.TelemetrySnapshot();
  std::printf("\ntelemetry: %llu rounds, %llu executions, %zu spans "
              "recorded\n",
              (unsigned long long)
                  telemetry.metrics.Value("aid_rounds_total"),
              (unsigned long long)
                  telemetry.metrics.Value("aid_executions_total"),
              telemetry.spans.size());
  return 0;
}
