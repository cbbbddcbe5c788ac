// Table-driven coverage of SubstrateCounters (core/target.h): every counter
// survives the snapshot diff, a DiscoveryState checkpoint, the service
// REPORT codec and the telemetry fold under its own name. The test keeps
// its own list of the counters, so a counter missing from
// SubstrateCounters::kFields fails here.

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/discovery_state.h"
#include "core/target.h"
#include "service/protocol.h"
#include "synth/model.h"
#include "telemetry/telemetry.h"

namespace aid {
namespace {

struct NamedCounter {
  const char* name;
  uint64_t SubstrateCounters::*member;
};

/// Every scalar substrate counter, listed independently of kFields.
const NamedCounter kCounters[] = {
    {"executions", &SubstrateCounters::executions},
    {"respawns", &SubstrateCounters::respawns},
    {"crashed_trials", &SubstrateCounters::crashed_trials},
    {"timed_out_trials", &SubstrateCounters::timed_out_trials},
    {"trial_micros", &SubstrateCounters::trial_micros},
    {"steals", &SubstrateCounters::steals},
    {"cancelled_chunks", &SubstrateCounters::cancelled_chunks},
    {"straggler_wait_micros", &SubstrateCounters::straggler_wait_micros},
};

/// Every counter set to a distinct non-zero value.
SubstrateCounters Distinct() {
  SubstrateCounters counters;
  uint64_t value = 1000;
  for (const NamedCounter& counter : kCounters) {
    counters.*counter.member = value;
    value += 1111;
  }
  counters.replica_trials = {7, 0, 9};
  return counters;
}

void ExpectCountersEqual(const SubstrateCounters& expected,
                         const SubstrateCounters& actual,
                         const std::string& where) {
  for (const NamedCounter& counter : kCounters) {
    EXPECT_EQ(actual.*counter.member, expected.*counter.member)
        << where << ": " << counter.name;
  }
  EXPECT_EQ(actual.replica_trials, expected.replica_trials) << where;
}

GroundTruthModel MakeOneCauseModel() {
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(0);
  const PredicateId b = model.AddPredicate(1);
  model.AddTemporalEdge(a, b);
  model.SetCausalChain({a});
  return model;
}

/// An outcome for `action` in which the failure never shows: every
/// intervened group averts it.
ActionOutcome AvertingOutcome(const DiscoveryAction& action) {
  PredicateLog passing;
  passing.failed = false;
  ActionOutcome outcome;
  if (action.kind == DiscoveryAction::Kind::kRound) {
    outcome.result.logs.assign(static_cast<size_t>(action.trials), passing);
  } else {
    outcome.batch.resize(action.spans.size());
    for (TargetRunResult& result : outcome.batch) {
      result.logs.assign(static_cast<size_t>(action.trials), passing);
    }
  }
  return outcome;
}

TEST(SubstrateCountersTest, TableListsEveryCounterOnce) {
  std::set<std::string> listed;
  for (const NamedCounter& counter : kCounters) listed.insert(counter.name);
  std::set<std::string> table;
  for (const SubstrateCounters::Field& field : SubstrateCounters::kFields) {
    EXPECT_TRUE(table.insert(field.name).second) << field.name;
    EXPECT_EQ(std::string(field.metric),
              "aid_" + std::string(field.name) + "_total");
    for (const NamedCounter& counter : kCounters) {
      if (field.name == std::string(counter.name)) {
        EXPECT_TRUE(field.member == counter.member) << field.name;
      }
    }
  }
  EXPECT_EQ(table, listed);
  // A scalar member added to the struct but not to the table changes the
  // size without changing the table.
  EXPECT_EQ(sizeof(SubstrateCounters),
            std::size(SubstrateCounters::kFields) * sizeof(uint64_t) +
                sizeof(std::vector<uint64_t>));
}

TEST(SubstrateCountersTest, DiffUndoesSum) {
  SubstrateCounters before;
  before.executions = 5;
  before.steals = 2;
  before.replica_trials = {1, 1};
  SubstrateCounters after = before;
  after += Distinct();
  ExpectCountersEqual(Distinct(), after - before, "after - before");
}

TEST(SubstrateCountersTest, EveryCounterSurvivesCheckpointReportAndMetrics) {
  const GroundTruthModel model = MakeOneCauseModel();
  Result<AcDag> dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();
  EngineOptions options = EngineOptions::Aid();
  DiscoveryState state(&*dag, options, Rng(options.seed));

  // One action carrying every counter, then a checkpoint.
  Result<DiscoveryAction> first = state.NextAction();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_NE(first->kind, DiscoveryAction::Kind::kDone);
  ActionOutcome outcome = AvertingOutcome(*first);
  outcome.delta = Distinct();
  ASSERT_TRUE(state.Feed(*first, outcome).ok());
  Result<std::string> blob = state.Serialize();
  ASSERT_TRUE(blob.ok()) << blob.status();

  std::shared_ptr<Telemetry> telemetry = Telemetry::Create();
  Result<std::unique_ptr<DiscoveryState>> resumed = DiscoveryState::Deserialize(
      &*dag, *blob, /*observer=*/nullptr, telemetry.get());
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  while (true) {
    Result<DiscoveryAction> action = (*resumed)->NextAction();
    ASSERT_TRUE(action.ok()) << action.status();
    if (action->kind == DiscoveryAction::Kind::kDone) break;
    ASSERT_TRUE((*resumed)->Feed(*action, AvertingOutcome(*action)).ok());
  }
  Result<DiscoveryReport> report = (*resumed)->Finalize();
  ASSERT_TRUE(report.ok()) << report.status();
  ExpectCountersEqual(Distinct(), *report, "checkpointed report");

  ReportMsg msg;
  msg.session_id = 3;
  msg.report = *report;
  Result<ReportMsg> decoded = DecodeReportMsg(EncodeReportMsg(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectCountersEqual(Distinct(), decoded->report, "REPORT codec");
  EXPECT_TRUE(SameDiscoveryOutcome(*report, decoded->report));

  const MetricsSnapshot metrics = telemetry->Snapshot().metrics;
  for (const NamedCounter& counter : kCounters) {
    const std::string metric = "aid_" + std::string(counter.name) + "_total";
    ASSERT_NE(metrics.Find(metric), nullptr) << metric;
    EXPECT_EQ(metrics.Value(metric), (*report).*counter.member) << metric;
  }
}

}  // namespace
}  // namespace aid
