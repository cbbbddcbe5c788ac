// Golden engine outcomes: every preset, on the six case studies and on
// synthetic models (one of them > 1k predicates, not a multiple of 64, so the
// AC-DAG's packed rows end in a partial word), must reproduce the recorded
// rounds, executions, speculative executions, causal path, spurious set and
// intervention history exactly. SameDiscoveryOutcome ignores `history`; this
// test pins it through a hash, so a change to the engine's data structures
// that reorders a single round shows here.
//
// On a mismatch the failure message prints the entry as it should be written
// in kGolden, which is also how the table was recorded.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "casestudies/case_study.h"
#include "core/engine.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

struct Outcome {
  uint64_t rounds = 0;
  uint64_t executions = 0;
  uint64_t speculative_executions = 0;
  std::vector<PredicateId> causal_path;
  size_t spurious_count = 0;
  uint64_t spurious_hash = 0;
  uint64_t history_hash = 0;
};

struct Golden {
  const char* scenario;
  const char* preset;
  Outcome outcome;
};

/// FNV-1a over 64-bit values.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

Outcome OutcomeOf(const DiscoveryReport& report) {
  Outcome o;
  o.rounds = report.rounds;
  o.executions = report.executions;
  o.speculative_executions = report.speculative_executions;
  o.causal_path = report.causal_path;
  o.spurious_count = report.spurious.size();
  Fnv spurious;
  for (PredicateId id : report.spurious) {
    spurious.Add(static_cast<uint64_t>(id));
  }
  o.spurious_hash = spurious.value();
  Fnv history;
  for (const InterventionRound& round : report.history) {
    history.Add(round.intervened.size());
    for (PredicateId id : round.intervened) {
      history.Add(static_cast<uint64_t>(id));
    }
    history.Add(round.failure_stopped ? 1 : 0);
    for (char c : round.phase) history.Add(static_cast<unsigned char>(c));
  }
  o.history_hash = history.value();
  return o;
}

std::string Format(const std::string& scenario, const std::string& preset,
                   const Outcome& o) {
  std::string path;
  for (size_t i = 0; i < o.causal_path.size(); ++i) {
    path += (i == 0 ? "" : ", ") + std::to_string(o.causal_path[i]);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", {%" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", {%s}, %zu, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}},",
                scenario.c_str(), preset.c_str(), o.rounds, o.executions,
                o.speculative_executions, path.c_str(), o.spurious_count,
                o.spurious_hash, o.history_hash);
  return buf;
}

struct Preset {
  const char* name;
  EngineOptions options;
};

std::vector<Preset> Presets() {
  EngineOptions batched = EngineOptions::Linear();
  batched.batched_dispatch = true;
  return {{"Aid", EngineOptions::Aid()},
          {"AidNoPredicatePruning", EngineOptions::AidNoPredicatePruning()},
          {"AidNoPruning", EngineOptions::AidNoPruning()},
          {"Tagt", EngineOptions::Tagt()},
          {"Linear", EngineOptions::Linear()},
          {"LinearBatched", batched}};
}

// Recorded before the AC-DAG moved to word-packed rows. The synthetic
// LinearBatched executions and speculative executions were re-recorded when
// batched scans moved to 16-span windows; nothing else in those rows changed.
const Golden kGolden[] = {
    {"npgsql", "Aid",
     {4, 12, 0, {33, 34, 32, 0}, 0,
      0xcbf29ce484222325ULL, 0xd74c495292d34a66ULL}},
    {"npgsql", "AidNoPredicatePruning",
     {4, 12, 0, {33, 34, 32, 0}, 0,
      0xcbf29ce484222325ULL, 0xd74c495292d34a66ULL}},
    {"npgsql", "AidNoPruning",
     {4, 12, 0, {33, 34, 32, 0}, 0,
      0xcbf29ce484222325ULL, 0xd74c495292d34a66ULL}},
    {"npgsql", "Tagt",
     {4, 12, 0, {33, 34, 32, 0}, 0,
      0xcbf29ce484222325ULL, 0xd26b41c1cf6353e7ULL}},
    {"npgsql", "Linear",
     {3, 9, 0, {33, 34, 32, 0}, 0,
      0xcbf29ce484222325ULL, 0x08914c8b2f76096fULL}},
    {"npgsql", "LinearBatched",
     {3, 9, 0, {33, 34, 32, 0}, 0,
      0xcbf29ce484222325ULL, 0x08914c8b2f76096fULL}},
    {"kafka", "Aid",
     {11, 33, 0, {22, 21, 28, 26, 20, 0}, 5,
      0xadb3981612ee28b5ULL, 0x7c39d6a671b004a3ULL}},
    {"kafka", "AidNoPredicatePruning",
     {11, 33, 0, {22, 21, 28, 26, 20, 0}, 5,
      0xadb3981612ee28b5ULL, 0x7c39d6a671b004a3ULL}},
    {"kafka", "AidNoPruning",
     {13, 39, 0, {22, 21, 28, 26, 20, 0}, 5,
      0xadb3981612ee28b5ULL, 0x1239e5e847c71d5bULL}},
    {"kafka", "Tagt",
     {13, 39, 0, {22, 21, 28, 26, 20, 0}, 5,
      0xadb3981612ee28b5ULL, 0xe2ec17077fa5e7b2ULL}},
    {"kafka", "Linear",
     {8, 24, 0, {22, 21, 28, 26, 20, 0}, 5,
      0xadb3981612ee28b5ULL, 0x5f10d6beda825ba9ULL}},
    {"kafka", "LinearBatched",
     {8, 30, 6, {22, 21, 28, 26, 20, 0}, 5,
      0xadb3981612ee28b5ULL, 0x5f10d6beda825ba9ULL}},
    {"cosmosdb", "Aid",
     {14, 42, 0, {20, 19, 27, 26, 25, 23, 0}, 4,
      0xc92969d07fcabde2ULL, 0x58c927320fbda215ULL}},
    {"cosmosdb", "AidNoPredicatePruning",
     {14, 42, 0, {20, 19, 27, 26, 25, 23, 0}, 4,
      0xc92969d07fcabde2ULL, 0x58c927320fbda215ULL}},
    {"cosmosdb", "AidNoPruning",
     {15, 45, 0, {20, 19, 27, 26, 25, 23, 0}, 4,
      0xc92969d07fcabde2ULL, 0x804f8c186d1b7755ULL}},
    {"cosmosdb", "Tagt",
     {15, 45, 0, {20, 19, 27, 26, 25, 23, 0}, 4,
      0xc92969d07fcabde2ULL, 0x1d95b16e54132e1dULL}},
    {"cosmosdb", "Linear",
     {9, 27, 0, {20, 19, 27, 26, 25, 23, 0}, 4,
      0xc92969d07fcabde2ULL, 0x755d8bad1b01e6daULL}},
    {"cosmosdb", "LinearBatched",
     {9, 30, 3, {20, 19, 27, 26, 25, 23, 0}, 4,
      0xc92969d07fcabde2ULL, 0x755d8bad1b01e6daULL}},
    {"network", "Aid",
     {2, 6, 0, {21, 0}, 1,
      0xd669f6d4eced7017ULL, 0x157596af0f89b703ULL}},
    {"network", "AidNoPredicatePruning",
     {2, 6, 0, {21, 0}, 1,
      0xd669f6d4eced7017ULL, 0x157596af0f89b703ULL}},
    {"network", "AidNoPruning",
     {2, 6, 0, {21, 0}, 1,
      0xd669f6d4eced7017ULL, 0x157596af0f89b703ULL}},
    {"network", "Tagt",
     {2, 6, 0, {21, 0}, 1,
      0xd669f6d4eced7017ULL, 0x157596af0f89b703ULL}},
    {"network", "Linear",
     {2, 6, 0, {21, 0}, 1,
      0xd669f6d4eced7017ULL, 0x157596af0f89b703ULL}},
    {"network", "LinearBatched",
     {2, 6, 0, {21, 0}, 1,
      0xd669f6d4eced7017ULL, 0x157596af0f89b703ULL}},
    {"buildandtest", "Aid",
     {9, 27, 0, {14, 15, 16, 13, 0}, 2,
      0xdb4d8f558985c522ULL, 0x7a8c1d7d8215a546ULL}},
    {"buildandtest", "AidNoPredicatePruning",
     {9, 27, 0, {14, 15, 16, 13, 0}, 2,
      0xdb4d8f558985c522ULL, 0x7a8c1d7d8215a546ULL}},
    {"buildandtest", "AidNoPruning",
     {9, 27, 0, {14, 15, 16, 13, 0}, 2,
      0xdb4d8f558985c522ULL, 0x7a8c1d7d8215a546ULL}},
    {"buildandtest", "Tagt",
     {9, 27, 0, {14, 15, 16, 13, 0}, 2,
      0xdb4d8f558985c522ULL, 0xfaea9ea262f693a7ULL}},
    {"buildandtest", "Linear",
     {6, 18, 0, {14, 15, 16, 13, 0}, 2,
      0xdb4d8f558985c522ULL, 0x9312502454e26c7eULL}},
    {"buildandtest", "LinearBatched",
     {6, 18, 0, {14, 15, 16, 13, 0}, 2,
      0xdb4d8f558985c522ULL, 0x9312502454e26c7eULL}},
    {"healthtelemetry", "Aid",
     {25, 75, 0, {25, 26, 24, 23, 22, 21, 20, 19, 18, 17, 16, 0}, 8,
      0x1936564b3387b325ULL, 0xb0664384b895d511ULL}},
    {"healthtelemetry", "AidNoPredicatePruning",
     {25, 75, 0, {25, 26, 24, 23, 22, 21, 20, 19, 18, 17, 16, 0}, 8,
      0x1936564b3387b325ULL, 0xb0664384b895d511ULL}},
    {"healthtelemetry", "AidNoPruning",
     {25, 75, 0, {25, 26, 24, 23, 22, 21, 20, 19, 18, 17, 16, 0}, 8,
      0x1936564b3387b325ULL, 0xb0664384b895d511ULL}},
    {"healthtelemetry", "Tagt",
     {27, 81, 0, {25, 26, 24, 23, 22, 21, 20, 19, 18, 17, 16, 0}, 8,
      0x1936564b3387b325ULL, 0xc6537dab375d1967ULL}},
    {"healthtelemetry", "Linear",
     {19, 57, 0, {25, 26, 24, 23, 22, 21, 20, 19, 18, 17, 16, 0}, 8,
      0x1936564b3387b325ULL, 0xc1124de7022ff557ULL}},
    {"healthtelemetry", "LinearBatched",
     {19, 57, 0, {25, 26, 24, 23, 22, 21, 20, 19, 18, 17, 16, 0}, 8,
      0x1936564b3387b325ULL, 0xc1124de7022ff557ULL}},
    {"synth_t8_s1", "Aid",
     {13, 13, 0, {3, 31, 32, 34, 35, 36, 0}, 30,
      0x7b1a12d30c98a798ULL, 0xffc1ad9c2224071aULL}},
    {"synth_t8_s1", "AidNoPredicatePruning",
     {14, 14, 0, {3, 31, 32, 34, 35, 36, 0}, 30,
      0x7b1a12d30c98a798ULL, 0x92c49f1edf3838b1ULL}},
    {"synth_t8_s1", "AidNoPruning",
     {25, 25, 0, {3, 31, 32, 34, 35, 36, 0}, 30,
      0x7b1a12d30c98a798ULL, 0x0a71b01da177e94eULL}},
    {"synth_t8_s1", "Tagt",
     {36, 36, 0, {3, 31, 32, 34, 35, 36, 0}, 30,
      0x7b1a12d30c98a798ULL, 0x0bb95925fe7c23b7ULL}},
    {"synth_t8_s1", "Linear",
     {21, 21, 0, {3, 31, 32, 34, 35, 36, 0}, 30,
      0x7b1a12d30c98a798ULL, 0xec22acc7ac6ca669ULL}},
    {"synth_t8_s1", "LinearBatched",
     {21, 25, 4, {3, 31, 32, 34, 35, 36, 0}, 30,
      0x7b1a12d30c98a798ULL, 0xec22acc7ac6ca669ULL}},
    {"synth_t12_s7", "Aid",
     {14, 14, 0, {1, 21, 22, 24, 25, 56, 57, 0}, 50,
      0x0044364cf9993b46ULL, 0x00c4e8becd3d4e2cULL}},
    {"synth_t12_s7", "AidNoPredicatePruning",
     {15, 15, 0, {1, 21, 22, 24, 25, 56, 57, 0}, 50,
      0x0044364cf9993b46ULL, 0x4bef640259f4e793ULL}},
    {"synth_t12_s7", "AidNoPruning",
     {36, 36, 0, {1, 21, 22, 24, 25, 56, 57, 0}, 50,
      0x0044364cf9993b46ULL, 0x334375aad3d83943ULL}},
    {"synth_t12_s7", "Tagt",
     {46, 46, 0, {1, 21, 22, 24, 25, 56, 57, 0}, 50,
      0x0044364cf9993b46ULL, 0x98b7eee14a2c8018ULL}},
    {"synth_t12_s7", "Linear",
     {14, 14, 0, {1, 21, 22, 24, 25, 56, 57, 0}, 50,
      0x0044364cf9993b46ULL, 0x463bb9cf56a9db1dULL}},
    {"synth_t12_s7", "LinearBatched",
     {14, 34, 20, {1, 21, 22, 24, 25, 56, 57, 0}, 50,
      0x0044364cf9993b46ULL, 0x463bb9cf56a9db1dULL}},
    {"synth_t20_s3", "Aid",
     {14, 14, 0, {1, 2, 3, 13, 14, 15, 77, 0}, 70,
      0xe1f2086280b353a5ULL, 0x1bd20903f8888468ULL}},
    {"synth_t20_s3", "AidNoPredicatePruning",
     {14, 14, 0, {1, 2, 3, 13, 14, 15, 77, 0}, 70,
      0xe1f2086280b353a5ULL, 0x1bd20903f8888468ULL}},
    {"synth_t20_s3", "AidNoPruning",
     {34, 34, 0, {1, 2, 3, 13, 14, 15, 77, 0}, 70,
      0xe1f2086280b353a5ULL, 0x5dd9752895212bb3ULL}},
    {"synth_t20_s3", "Tagt",
     {56, 56, 0, {1, 2, 3, 13, 14, 15, 77, 0}, 70,
      0xe1f2086280b353a5ULL, 0x62a6b655a45e1c60ULL}},
    {"synth_t20_s3", "Linear",
     {8, 8, 0, {1, 2, 3, 13, 14, 15, 77, 0}, 70,
      0xe1f2086280b353a5ULL, 0x406fc87f8b98de09ULL}},
    {"synth_t20_s3", "LinearBatched",
     {8, 17, 9, {1, 2, 3, 13, 14, 15, 77, 0}, 70,
      0xe1f2086280b353a5ULL, 0x406fc87f8b98de09ULL}},
    {"synth_t40_s11", "Aid",
     {18, 18, 0, {151, 184, 185, 271, 272, 0}, 267,
      0xaa1db023cbd203c7ULL, 0x6db05380f0e46101ULL}},
    {"synth_t40_s11", "AidNoPredicatePruning",
     {20, 20, 0, {151, 184, 185, 271, 272, 0}, 267,
      0xaa1db023cbd203c7ULL, 0x8e69620a4d617cf3ULL}},
    {"synth_t40_s11", "AidNoPruning",
     {36, 36, 0, {151, 184, 185, 271, 272, 0}, 267,
      0xaa1db023cbd203c7ULL, 0xc90b423eef6ed05cULL}},
    {"synth_t40_s11", "Tagt",
     {83, 83, 0, {151, 184, 185, 271, 272, 0}, 267,
      0xaa1db023cbd203c7ULL, 0x5961a9efee991af3ULL}},
    {"synth_t40_s11", "Linear",
     {173, 173, 0, {151, 184, 185, 271, 272, 0}, 267,
      0xaa1db023cbd203c7ULL, 0xa0e4c21cb917ca1eULL}},
    {"synth_t40_s11", "LinearBatched",
     {173, 178, 5, {151, 184, 185, 271, 272, 0}, 267,
      0xaa1db023cbd203c7ULL, 0xa0e4c21cb917ca1eULL}},
    {"synth_t160_s6", "Aid",
     {31, 31, 0, {1, 2, 3, 64, 65, 546, 547, 807, 808, 809, 1129, 0}, 1118,
      0x9cdb197182d467eaULL, 0xaa56f69b9fb89b22ULL}},
    {"synth_t160_s6", "AidNoPredicatePruning",
     {31, 31, 0, {1, 2, 3, 64, 65, 546, 547, 807, 808, 809, 1129, 0}, 1118,
      0x9cdb197182d467eaULL, 0xaa56f69b9fb89b22ULL}},
    {"synth_t160_s6", "AidNoPruning",
     {99, 99, 0, {1, 2, 3, 64, 65, 546, 547, 807, 808, 809, 1129, 0}, 1118,
      0x9cdb197182d467eaULL, 0x86744b35d14ee4f5ULL}},
    {"synth_t160_s6", "Tagt",
     {177, 177, 0, {1, 2, 3, 64, 65, 546, 547, 807, 808, 809, 1129, 0}, 1118,
      0x9cdb197182d467eaULL, 0x3c02878fa993b431ULL}},
    {"synth_t160_s6", "Linear",
     {39, 39, 0, {1, 2, 3, 64, 65, 546, 547, 807, 808, 809, 1129, 0}, 1118,
      0x9cdb197182d467eaULL, 0xc1daca3a01a83898ULL}},
    {"synth_t160_s6", "LinearBatched",
     {39, 66, 27, {1, 2, 3, 64, 65, 546, 547, 807, 808, 809, 1129, 0}, 1118,
      0x9cdb197182d467eaULL, 0xc1daca3a01a83898ULL}},
};

const Outcome* Find(const std::string& scenario, const std::string& preset) {
  for (const Golden& g : kGolden) {
    if (scenario == g.scenario && preset == g.preset) return &g.outcome;
  }
  return nullptr;
}

void ExpectGolden(const std::string& scenario, const std::string& preset,
                  const DiscoveryReport& report) {
  const Outcome actual = OutcomeOf(report);
  const std::string line = Format(scenario, preset, actual);
  const Outcome* expected = Find(scenario, preset);
  ASSERT_NE(expected, nullptr) << "no golden entry; record:\n" << line;
  EXPECT_EQ(actual.rounds, expected->rounds) << line;
  EXPECT_EQ(actual.executions, expected->executions) << line;
  EXPECT_EQ(actual.speculative_executions, expected->speculative_executions)
      << line;
  EXPECT_EQ(actual.causal_path, expected->causal_path) << line;
  EXPECT_EQ(actual.spurious_count, expected->spurious_count) << line;
  EXPECT_EQ(actual.spurious_hash, expected->spurious_hash) << line;
  EXPECT_EQ(actual.history_hash, expected->history_hash) << line;
}

class GoldenCaseStudyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenCaseStudyTest, EveryPresetMatchesTheRecordedOutcome) {
  const std::string& key = GetParam();
  for (const Preset& preset : Presets()) {
    // A fresh session per preset: the VM target's schedule stream advances
    // with every execution, so sharing one would couple the presets.
    EngineOptions options = preset.options;
    options.trials_per_intervention = 3;
    auto session = SessionBuilder()
                       .WithCaseStudy(key)
                       .WithEngineOptions(options)
                       .WithDescriptions(false)
                       .Build();
    ASSERT_TRUE(session.ok()) << key << ": " << session.status();
    auto report = session->Run();
    ASSERT_TRUE(report.ok()) << key << "/" << preset.name << ": "
                             << report.status();
    ExpectGolden(key, preset.name, report->discovery);
  }
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, GoldenCaseStudyTest,
                         ::testing::ValuesIn(CaseStudyKeys()));

struct SynthCase {
  const char* name;
  int threads;
  int blocks_max;
  uint64_t seed;
};

class GoldenSyntheticTest : public ::testing::TestWithParam<SynthCase> {};

TEST_P(GoldenSyntheticTest, EveryPresetMatchesTheRecordedOutcome) {
  const SynthCase& c = GetParam();
  SyntheticAppOptions options;
  options.min_threads = options.max_threads = c.threads;
  options.blocks_max = c.blocks_max;
  options.seed = c.seed;
  auto model = GenerateSyntheticApp(options);
  ASSERT_TRUE(model.ok()) << model.status();
  auto dag = (*model)->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();
  for (const Preset& preset : Presets()) {
    ModelTarget target(model->get());
    CausalPathDiscovery discovery(&*dag, &target, preset.options);
    auto report = discovery.Run();
    ASSERT_TRUE(report.ok()) << c.name << "/" << preset.name << ": "
                             << report.status();
    ExpectGolden(c.name, preset.name, *report);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Synthetic, GoldenSyntheticTest,
    ::testing::Values(SynthCase{"synth_t8_s1", 8, 2, 1},
                      SynthCase{"synth_t12_s7", 12, 2, 7},
                      SynthCase{"synth_t20_s3", 20, 2, 3},
                      SynthCase{"synth_t40_s11", 40, 2, 11},
                      SynthCase{"synth_t160_s6", 160, 2, 6}),
    [](const ::testing::TestParamInfo<SynthCase>& info) {
      return std::string(info.param.name);
    });

TEST(GoldenSyntheticShapeTest, LargeModelEndsInAPartialWord) {
  SyntheticAppOptions options;
  options.min_threads = options.max_threads = 160;
  options.seed = 6;
  auto model = GenerateSyntheticApp(options);
  ASSERT_TRUE(model.ok());
  auto dag = (*model)->BuildAcDag();
  ASSERT_TRUE(dag.ok());
  EXPECT_GE(dag->size(), 1000u);
  EXPECT_NE(dag->size() % 64, 0u);
}

}  // namespace
}  // namespace aid
