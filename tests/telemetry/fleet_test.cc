// Socket-transport telemetry tests over a real loopback runner fleet:
// span context propagates through the runner daemon into its forked
// subject hosts and the host-side spans come back imported under the
// engine-side trial spans; metric totals still mirror the DiscoveryReport;
// and the runner's shared stats block answers FetchRunnerStats with a
// valid JSON document counting the trials it served.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "net/runner.h"
#include "synth/generator.h"
#include "synth/model.h"
#include "telemetry/json.h"

namespace aid {
namespace {

#if AID_NET_SUPPORTED

class TelemetryFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = 7;
    auto model = GenerateSyntheticApp(options);
    ASSERT_TRUE(model.ok()) << model.status();
    model_ = std::move(*model);
    for (int i = 0; i < 2; ++i) {
      auto runner = Runner::Start();
      ASSERT_TRUE(runner.ok()) << runner.status();
      fleet_.push_back((*runner)->endpoint().ToString());
      runners_.push_back(std::move(*runner));
    }
  }

  std::unique_ptr<GroundTruthModel> model_;
  std::vector<std::unique_ptr<Runner>> runners_;
  std::vector<std::string> fleet_;
};

const SpanRecord* FindById(const std::vector<SpanRecord>& spans,
                           uint64_t id) {
  for (const SpanRecord& span : spans) {
    if (span.id == id) return &span;
  }
  return nullptr;
}

std::vector<const SpanRecord*> FindByName(
    const std::vector<SpanRecord>& spans, const std::string& name) {
  std::vector<const SpanRecord*> out;
  for (const SpanRecord& span : spans) {
    if (span.name == name) out.push_back(&span);
  }
  return out;
}

/// Pulls the unsigned integer following `"key":` out of a flat JSON
/// document. Good enough for the self-describing stats schema; the
/// document's syntax is separately checked with JsonLooksValid.
uint64_t JsonUintField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST_F(TelemetryFleetTest, HostSpansImportUnderEngineTrialSpans) {
  auto session = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(3)
                     .WithParallelism(2)
                     .WithRemoteFleet(fleet_, /*trial_deadline_ms=*/20000)
                     .WithTelemetry()
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->discovery.crashed_trials, 0u);
  ASSERT_EQ(report->discovery.timed_out_trials, 0u);

  const TelemetrySnapshot snapshot = session->TelemetrySnapshot();
  const std::vector<SpanRecord>& spans = snapshot.spans;

  // Every remote execution opened an engine-side trial span...
  auto trials = FindByName(spans, "trial");
  ASSERT_FALSE(trials.empty());
  EXPECT_EQ(trials.size(),
            static_cast<size_t>(report->discovery.executions));

  // ...and each one adopted the pair of host-side spans the VERDICT
  // carried back: host.trial (whole request handling) and host.subject_run
  // (just the subject execution), re-based into the engine's timeline and
  // clamped inside their trial span.
  auto host_trials = FindByName(spans, "host.trial");
  auto host_runs = FindByName(spans, "host.subject_run");
  EXPECT_EQ(host_trials.size(), trials.size());
  EXPECT_EQ(host_runs.size(), trials.size());
  for (const auto* list : {&host_trials, &host_runs}) {
    for (const SpanRecord* host_span : *list) {
      EXPECT_TRUE(host_span->imported) << host_span->name;
      const SpanRecord* trial = FindById(spans, host_span->parent);
      ASSERT_NE(trial, nullptr);
      EXPECT_EQ(trial->name, "trial");
      EXPECT_GE(host_span->start_us, trial->start_us);
      EXPECT_LE(host_span->end_us, trial->end_us);
      EXPECT_EQ(host_span->lane, trial->lane);
    }
  }

  // Cross-process nesting bottoms out in the engine's own tree: trial and
  // chunk spans both parent under the round (or batch) span the engine
  // published in the active-parent slot.
  for (const SpanRecord* trial : trials) {
    const SpanRecord* parent = FindById(spans, trial->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_TRUE(parent->name == "round" || parent->name == "round.batch")
        << parent->name;
  }
}

TEST_F(TelemetryFleetTest, MetricsMirrorReportAndLabelTheSocketTransport) {
  // Static sharding runs both replicas -- one per runner -- in every
  // round; work stealing may let one replica take every chunk, and the
  // idle runner would then never get a per-endpoint instrument.
  SchedulerOptions scheduler;
  scheduler.policy = SchedulerPolicy::kStatic;
  auto session = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(3)
                     .WithParallelism(2)
                     .WithScheduler(scheduler)
                     .WithRemoteFleet(fleet_, /*trial_deadline_ms=*/20000)
                     .WithTelemetry()
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  const MetricsSnapshot metrics = session->TelemetrySnapshot().metrics;
  EXPECT_EQ(metrics.Value("aid_rounds_total"),
            static_cast<uint64_t>(report->discovery.rounds));
  EXPECT_EQ(metrics.Value("aid_executions_total"),
            report->discovery.executions);
  EXPECT_EQ(metrics.Value("aid_speculative_executions_total"),
            report->discovery.speculative_executions);
  EXPECT_EQ(metrics.Value("aid_steals_total"), report->discovery.steals);
  EXPECT_EQ(metrics.Value("aid_crashed_trials_total"), 0u);

  // Socket wire latencies landed in the per-transport histogram.
  const uint64_t socket_samples = metrics.Value(
      "aid_trial_latency_us", {{"transport", "socket"}});
  EXPECT_GT(socket_samples, 0u);
  EXPECT_LE(socket_samples, report->discovery.executions);
  EXPECT_EQ(metrics.Value("aid_trial_latency_us", {{"transport", "pipe"}}),
            0u);

  // The fleet's per-endpoint instruments exist for both runners.
  for (const std::string& endpoint : fleet_) {
    EXPECT_NE(metrics.Find("aid_endpoint_trial_latency_us",
                           {{"endpoint", endpoint}}),
              nullptr)
        << endpoint;
  }
}

TEST_F(TelemetryFleetTest, TelemetryDoesNotPerturbTheFleetReport) {
  auto plain = SessionBuilder()
                   .WithModel(model_.get())
                   .WithTrials(3)
                   .WithParallelism(2)
                   .WithRemoteFleet(fleet_, /*trial_deadline_ms=*/20000)
                   .Build();
  ASSERT_TRUE(plain.ok()) << plain.status();
  auto plain_report = plain->Run();
  ASSERT_TRUE(plain_report.ok()) << plain_report.status();

  auto traced = SessionBuilder()
                    .WithModel(model_.get())
                    .WithTrials(3)
                    .WithParallelism(2)
                    .WithRemoteFleet(fleet_, /*trial_deadline_ms=*/20000)
                    .WithTelemetry()
                    .Build();
  ASSERT_TRUE(traced.ok()) << traced.status();
  auto traced_report = traced->Run();
  ASSERT_TRUE(traced_report.ok()) << traced_report.status();

  EXPECT_EQ(plain_report->discovery.causal_path,
            traced_report->discovery.causal_path);
  EXPECT_EQ(plain_report->discovery.spurious,
            traced_report->discovery.spurious);
  EXPECT_EQ(plain_report->discovery.rounds, traced_report->discovery.rounds);
  EXPECT_EQ(plain_report->discovery.executions,
            traced_report->discovery.executions);
  EXPECT_EQ(plain_report->discovery.speculative_executions,
            traced_report->discovery.speculative_executions);
}

TEST_F(TelemetryFleetTest, FetchRunnerStatsCountsServedTrials) {
  auto session = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(3)
                     .WithParallelism(2)
                     .WithRemoteFleet(fleet_, /*trial_deadline_ms=*/20000)
                     .WithTelemetry()
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  uint64_t fleet_trials = 0;
  for (const std::string& endpoint : fleet_) {
    auto stats = FetchRunnerStats(endpoint);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_TRUE(JsonLooksValid(*stats)) << *stats;
    EXPECT_NE(stats->find("\"trial_latency_us\""), std::string::npos);
    EXPECT_GE(JsonUintField(*stats, "sessions_started"), 1u);
    fleet_trials += JsonUintField(*stats, "trials");
  }
  // Both runners together served every remote execution of the run.
  EXPECT_EQ(fleet_trials, report->discovery.executions);
}

TEST_F(TelemetryFleetTest, StatsConnectionIsNotASession) {
  const int sessions_before = runners_[0]->sessions_started();
  auto stats = FetchRunnerStats(fleet_[0]);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(JsonLooksValid(*stats)) << *stats;
  EXPECT_EQ(JsonUintField(*stats, "trials"), 0u);
  // The stats path forks a host like any connection; it reports the daemon
  // as one more started session but serves zero trials.
  EXPECT_EQ(runners_[0]->sessions_started(), sessions_before + 1);
}

#else  // !AID_NET_SUPPORTED

TEST(TelemetryFleetTest, FetchRunnerStatsUnimplementedOnThisPlatform) {
  auto stats = FetchRunnerStats("127.0.0.1:1");
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnimplemented);
}

#endif  // AID_NET_SUPPORTED

}  // namespace
}  // namespace aid
