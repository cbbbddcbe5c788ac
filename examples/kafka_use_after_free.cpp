// Walkthrough of the Kafka use-after-free case study (paper Section 7.1.2,
// confluent-kafka-dotnet issue #279): a slow work item makes the child
// thread commit on a consumer the main thread has already disposed.
//
// Demonstrates the *explanation* value of AID: statistical debugging alone
// surfaces a pile of fully-discriminative predicates (wrong returns from
// every status probe, slow durations, the commit exception) with no
// indication which one to fix; AID prunes the symptoms and delivers the
// chain from the slow work item to the crash. The whole pipeline, plus the
// TAGT baseline on the same target, runs through one aid::Session.
//
// Build & run:  ./build/examples/kafka_use_after_free

#include <cstdio>

#include "api/session.h"
#include "casestudies/case_study.h"

using namespace aid;

int main() {
  auto study_or = MakeKafkaUseAfterFree();
  if (!study_or.ok()) {
    std::fprintf(stderr, "%s\n", study_or.status().ToString().c_str());
    return 1;
  }
  const CaseStudy& study = *study_or;

  std::printf("== %s (%s) ==\n\n", study.name.c_str(), study.origin.c_str());

  auto session_or = SessionBuilder()
                        .WithProgram(&study.program, study.target_options)
                        .WithEngine(EnginePreset::kAid)
                        .WithTrials(3)
                        .WithTagtBaseline()
                        .Build();
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    return 1;
  }
  auto report_or = session_or->Run();
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const SessionReport& report = *report_or;

  std::printf("what a developer gets from statistical debugging alone:\n");
  std::printf("  %d fully-discriminative predicates, no causal structure\n\n",
              report.sd_predicates);

  std::printf("what AID adds:\n");
  std::printf("  root cause: %s\n", report.root_cause.c_str());
  std::printf("  causal explanation:\n");
  for (size_t i = 0; i < report.causal_path.size(); ++i) {
    std::printf("    %zu. %s\n", i + 1, report.causal_path[i].c_str());
  }
  std::printf("\n  interventions: %llu rounds "
              "(TAGT on the same target: %lld)\n",
              (unsigned long long)report.discovery.rounds,
              report.tagt_baseline ? (long long)report.tagt_baseline->rounds
                                   : -1LL);
  std::printf("  predicates proven spurious: %zu\n",
              report.discovery.spurious.size());
  std::printf("\npaper reference: 72 SD predicates, 5-predicate path, 17 AID "
              "vs 33 TAGT interventions\n");
  return 0;
}
