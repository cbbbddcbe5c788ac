// Integration tests over the six real-world case studies (paper Section
// 7.1, Figure 7): the full pipeline must identify the documented root cause
// and reproduce the paper's comparison shape (SD reports far more
// predicates than the causal path; AID uses fewer interventions than
// TAGT's worst case).

#include <cmath>

#include <gtest/gtest.h>

#include "api/session.h"
#include "casestudies/case_study.h"
#include "common/math_util.h"

namespace aid {
namespace {

/// Observes `study`, then runs AID (and, with `run_tagt`, the TAGT
/// baseline) at three trials per intervention.
Result<SessionReport> RunStudy(const CaseStudy& study, bool run_tagt) {
  EngineOptions aid = EngineOptions::Aid();
  aid.trials_per_intervention = 3;
  SessionBuilder builder;
  builder.WithProgram(&study.program, study.target_options)
      .WithEngineOptions(aid);
  if (run_tagt) {
    EngineOptions tagt = EngineOptions::Tagt();
    tagt.trials_per_intervention = 3;
    builder.WithTagtBaselineOptions(tagt);
  }
  AID_ASSIGN_OR_RETURN(Session session, builder.Build());
  return session.Run();
}

class CaseStudyTest : public ::testing::TestWithParam<int> {};

TEST_P(CaseStudyTest, PipelineFindsTheDocumentedRootCause) {
  auto studies = AllCaseStudies();
  ASSERT_TRUE(studies.ok());
  const CaseStudy& study = (*studies)[static_cast<size_t>(GetParam())];

  auto outcome = RunStudy(study, /*run_tagt=*/true);
  ASSERT_TRUE(outcome.ok()) << study.name << ": " << outcome.status();
  ASSERT_TRUE(outcome->tagt_baseline.has_value());

  // The discovered root cause matches the developers' explanation.
  EXPECT_NE(outcome->root_cause.find(study.expected_root_substring),
            std::string::npos)
      << study.name << ": got root '" << outcome->root_cause << "'";

  // The causal path is non-trivial and ends at the failure predicate.
  EXPECT_GE(outcome->causal_path_len(), 1) << study.name;
  ASSERT_FALSE(outcome->causal_path.empty());
  EXPECT_EQ(outcome->causal_path.back(), "FAILURE");

  // SD reports more predicates than the causal path contains -- the
  // imprecision AID resolves (Figure 7, columns 3 vs 4).
  EXPECT_GT(outcome->sd_predicates, outcome->causal_path_len())
      << study.name;

  // AID stays below TAGT's worst case D * ceil(log2 N) on the same DAG.
  const int worst_tagt =
      outcome->causal_path_len() *
      CeilLog2(static_cast<uint64_t>(std::max(outcome->acdag_nodes, 2)));
  EXPECT_LE(outcome->discovery.rounds,
            std::max<uint64_t>(worst_tagt, outcome->tagt_baseline->rounds))
      << study.name;

  // Both engines find the same root cause.
  EXPECT_EQ(outcome->discovery.root_cause(),
            outcome->tagt_baseline->root_cause())
      << study.name;

  // Causal and spurious sets are disjoint and cover the AC-DAG candidates.
  for (PredicateId causal : outcome->discovery.causal_path) {
    for (PredicateId spurious : outcome->discovery.spurious) {
      EXPECT_NE(causal, spurious) << study.name;
    }
  }
  EXPECT_EQ(static_cast<int>(outcome->discovery.causal_path.size() - 1 +
                             outcome->discovery.spurious.size()),
            outcome->acdag_nodes - 1)
      << study.name;
}

std::string CaseStudyName(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"Npgsql",  "Kafka",        "CosmosDB",
                                 "Network", "BuildAndTest", "HealthTelemetry"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllSix, CaseStudyTest, ::testing::Range(0, 6),
                         CaseStudyName);

TEST(CaseStudyRegistryTest, AllSixAreRegisteredWithPaperNumbers) {
  auto studies = AllCaseStudies();
  ASSERT_TRUE(studies.ok());
  ASSERT_EQ(studies->size(), 6u);
  for (const CaseStudy& study : *studies) {
    EXPECT_FALSE(study.name.empty());
    EXPECT_FALSE(study.origin.empty());
    EXPECT_FALSE(study.root_cause.empty());
    EXPECT_GT(study.paper.sd_predicates, 0);
    EXPECT_GT(study.paper.causal_path, 0);
    EXPECT_GT(study.paper.aid_interventions, 0);
    // The paper's headline comparison: AID beats TAGT on every case.
    EXPECT_LT(study.paper.aid_interventions, study.paper.tagt_interventions);
  }
}

TEST(CaseStudySpecificTest, NpgsqlExplanationMatchesIssue2485) {
  auto study = MakeNpgsqlRace();
  ASSERT_TRUE(study.ok());
  auto outcome = RunStudy(*study, /*run_tagt=*/false);
  ASSERT_TRUE(outcome.ok());
  // Path: race on the index variable -> premature read -> exception.
  ASSERT_GE(outcome->causal_path.size(), 3u);
  EXPECT_NE(outcome->causal_path[0].find("_nextSlot"), std::string::npos);
  bool mentions_exception = false;
  for (const auto& step : outcome->causal_path) {
    if (step.find("throws an exception") != std::string::npos) {
      mentions_exception = true;
    }
  }
  EXPECT_TRUE(mentions_exception);
}

TEST(CaseStudySpecificTest, KafkaPathLinksSlownessToDisposedCommit) {
  auto study = MakeKafkaUseAfterFree();
  ASSERT_TRUE(study.ok());
  auto outcome = RunStudy(*study, /*run_tagt=*/false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome->root_cause.find("DoWork runs too slow"),
            std::string::npos);
  bool commit_fails = false;
  for (const auto& step : outcome->causal_path) {
    if (step.find("CommitOffsets throws") != std::string::npos) {
      commit_fails = true;
    }
  }
  EXPECT_TRUE(commit_fails);
}

TEST(CaseStudySpecificTest, NetworkPathIsJustTheCollision) {
  auto study = MakeNetworkCollision();
  ASSERT_TRUE(study.ok());
  auto outcome = RunStudy(*study, /*run_tagt=*/false);
  ASSERT_TRUE(outcome.ok());
  // The paper reports a single-predicate causal path for Network.
  EXPECT_EQ(outcome->causal_path_len(), 1);
  EXPECT_NE(outcome->root_cause.find("same value"), std::string::npos);
}

TEST(CaseStudySpecificTest, HealthTelemetryHasTheLongestPath) {
  auto studies = AllCaseStudies();
  ASSERT_TRUE(studies.ok());
  int health_len = 0;
  int max_other = 0;
  for (const CaseStudy& study : *studies) {
    auto outcome = RunStudy(study, /*run_tagt=*/false);
    ASSERT_TRUE(outcome.ok()) << study.name;
    if (study.name == "HealthTelemetry") {
      health_len = outcome->causal_path_len();
    } else {
      max_other = std::max(max_other, outcome->causal_path_len());
    }
  }
  EXPECT_GT(health_len, max_other);
}

}  // namespace
}  // namespace aid
