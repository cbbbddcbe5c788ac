// Tests of the resumable round-state machine (core/discovery_state.h):
// step-driven execution must be bit-identical (SameDiscoveryOutcome) to the
// blocking CausalPathDiscovery::Run() on every engine preset, and a
// discovery checkpointed between actions -- mid-branch-prune, mid-GIWP, on
// all six case studies, and mid flaky budgeted run -- must resume on a
// fresh target to the exact report of the uninterrupted run.

#include "core/discovery_state.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <limits>

#include <gtest/gtest.h>

#include "api/target_factory.h"
#include "casestudies/case_study.h"
#include "core/engine.h"
#include "synth/flaky_target.h"
#include "synth/generator.h"
#include "synth/model.h"
#include "trace/serialize.h"

namespace aid {
namespace {

/// The paper's Figure 4 topology (same fixture as engine_test.cc): the
/// smallest model exercising both engine phases -- a junction for
/// Branch-Prune and a chain remainder for GIWP.
struct Figure4 {
  GroundTruthModel model;
  PredicateId p[12];

  Figure4() {
    model.AddFailure();
    for (int i = 1; i <= 11; ++i) p[i] = model.AddPredicate(i);
    auto edge = [&](int a, int b) { model.AddTemporalEdge(p[a], p[b]); };
    edge(1, 2);
    edge(2, 3);
    edge(3, 4);
    edge(4, 5);
    edge(5, 6);
    edge(3, 7);
    edge(7, 8);
    edge(7, 9);
    edge(8, 11);
    edge(9, 11);
    edge(6, 10);
    edge(8, 10);
    edge(9, 10);
    model.SetCausalChain({p[1], p[2], p[11]});
    model.SetTrueParents(p[10], {p[3], p[11]});
  }
};

/// Drives a state machine to completion against `target` -- the exact loop
/// CausalPathDiscovery::Run() is -- and finalizes the report.
Result<DiscoveryReport> DriveToEnd(DiscoveryState& state,
                                   InterventionTarget* target) {
  while (true) {
    AID_ASSIGN_OR_RETURN(DiscoveryAction action, state.NextAction());
    if (action.kind == DiscoveryAction::Kind::kDone) break;
    AID_ASSIGN_OR_RETURN(ActionOutcome outcome,
                         ExecuteDiscoveryAction(state, action, target));
    AID_RETURN_IF_ERROR(state.Feed(action, outcome));
  }
  return state.Finalize();
}

/// Full step-driven discovery from scratch.
Result<DiscoveryReport> StepDriven(const AcDag* dag,
                                   const EngineOptions& options,
                                   InterventionTarget* target) {
  AID_RETURN_IF_ERROR(ValidateDiscoveryOptions(options));
  DiscoveryState state(dag, options, Rng(options.seed));
  return DriveToEnd(state, target);
}

/// Runs `feeds` actions, checkpoints, resumes the checkpoint on
/// `resume_target`, and drives the resumed machine to its report. The
/// pre-checkpoint leg runs on `target`; `next_phase` (optional) receives
/// the phase the resumed machine plans next -- "branch" mid-Branch-Prune,
/// "giwp" mid-GIWP. `executions_at_checkpoint` (optional) receives the
/// resumed spend ledger, e.g. to SeekTrial a fresh positional target.
Result<DiscoveryReport> CheckpointAfter(
    const AcDag* dag, const EngineOptions& options, InterventionTarget* target,
    InterventionTarget* resume_target, int feeds,
    std::string* next_phase = nullptr,
    uint64_t* executions_at_checkpoint = nullptr,
    const std::function<void(uint64_t)>& position_resume_target = nullptr) {
  AID_RETURN_IF_ERROR(ValidateDiscoveryOptions(options));
  DiscoveryState state(dag, options, Rng(options.seed));
  for (int i = 0; i < feeds; ++i) {
    AID_ASSIGN_OR_RETURN(DiscoveryAction action, state.NextAction());
    if (action.kind == DiscoveryAction::Kind::kDone) break;
    AID_ASSIGN_OR_RETURN(ActionOutcome outcome,
                         ExecuteDiscoveryAction(state, action, target));
    AID_RETURN_IF_ERROR(state.Feed(action, outcome));
  }

  AID_ASSIGN_OR_RETURN(std::string blob, state.Serialize());
  AID_ASSIGN_OR_RETURN(
      std::unique_ptr<DiscoveryState> resumed,
      DiscoveryState::Deserialize(dag, blob, /*observer=*/nullptr,
                                  /*telemetry=*/nullptr));
  if (executions_at_checkpoint != nullptr) {
    *executions_at_checkpoint = resumed->executions();
  }
  if (position_resume_target) position_resume_target(resumed->executions());
  if (next_phase != nullptr) {
    AID_ASSIGN_OR_RETURN(DiscoveryAction peek, resumed->NextAction());
    *next_phase =
        peek.kind == DiscoveryAction::Kind::kDone ? "done" : peek.phase;
  }
  return DriveToEnd(*resumed, resume_target);
}

struct Preset {
  const char* name;
  EngineOptions options;
};

std::vector<Preset> AllPresets() {
  std::vector<Preset> presets;
  presets.push_back({"Aid", EngineOptions::Aid()});
  presets.push_back(
      {"AidNoPredicatePruning", EngineOptions::AidNoPredicatePruning()});
  presets.push_back({"AidNoPruning", EngineOptions::AidNoPruning()});
  presets.push_back({"Tagt", EngineOptions::Tagt()});
  presets.push_back({"Linear", EngineOptions::Linear()});

  EngineOptions batched = EngineOptions::Linear();
  batched.batched_dispatch = true;
  presets.push_back({"LinearBatched", batched});

  EngineOptions multi_trial = EngineOptions::Aid();
  multi_trial.trials_per_intervention = 3;
  presets.push_back({"AidThreeTrials", multi_trial});

  EngineOptions budgeted = EngineOptions::Aid();
  budgeted.trials_per_intervention = 3;
  budgeted.budget.enabled = true;
  presets.push_back({"AidBudgeted", budgeted});

  EngineOptions budgeted_batch = EngineOptions::Linear();
  budgeted_batch.batched_dispatch = true;
  budgeted_batch.trials_per_intervention = 3;
  budgeted_batch.budget.enabled = true;
  presets.push_back({"LinearBatchedBudgeted", budgeted_batch});
  return presets;
}

TEST(DiscoveryStateParityTest, StepDrivenMatchesRunOnEveryPreset) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  for (const Preset& preset : AllPresets()) {
    ModelTarget run_target(&fig.model);
    CausalPathDiscovery discovery(&*dag, &run_target, preset.options);
    auto blocking = discovery.Run();
    ASSERT_TRUE(blocking.ok()) << preset.name << ": " << blocking.status();

    ModelTarget step_target(&fig.model);
    auto stepped = StepDriven(&*dag, preset.options, &step_target);
    ASSERT_TRUE(stepped.ok()) << preset.name << ": " << stepped.status();

    EXPECT_TRUE(SameDiscoveryOutcome(*blocking, *stepped)) << preset.name;
    EXPECT_EQ(blocking->history.size(), stepped->history.size())
        << preset.name;
  }
}

TEST(DiscoveryStateParityTest, NextActionIsIdempotentUntilFed) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  auto first = state.NextAction();
  ASSERT_TRUE(first.ok());
  auto second = state.NextAction();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->kind, second->kind);
  EXPECT_EQ(first->preds, second->preds);
  EXPECT_EQ(first->trials, second->trials);
  EXPECT_STREQ(first->phase, second->phase);
}

TEST(DiscoveryStateCheckpointTest, SerializeWhileActionPendingIsRejected) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  auto action = state.NextAction();
  ASSERT_TRUE(action.ok());
  auto blob = state.Serialize();
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DiscoveryStateCheckpointTest, RoundTripIsByteStable) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  ModelTarget target(&fig.model);
  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  for (int i = 0; i < 3; ++i) {
    auto action = state.NextAction();
    ASSERT_TRUE(action.ok());
    ASSERT_NE(action->kind, DiscoveryAction::Kind::kDone);
    auto outcome = ExecuteDiscoveryAction(state, *action, &target);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(state.Feed(*action, *outcome).ok());
  }

  auto blob = state.Serialize();
  ASSERT_TRUE(blob.ok()) << blob.status();
  auto resumed = DiscoveryState::Deserialize(&*dag, *blob, nullptr, nullptr);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  auto reblob = (*resumed)->Serialize();
  ASSERT_TRUE(reblob.ok()) << reblob.status();
  EXPECT_EQ(*blob, *reblob);
}

TEST(DiscoveryStateCheckpointTest, DeserializeRejectsCorruptedBytes) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  auto blob = state.Serialize();
  ASSERT_TRUE(blob.ok()) << blob.status();

  // Unknown format versions, including version 2, whose engine options
  // still carried the budgeter's advice fields, and version 3, whose
  // engine options, items and belief block still carried the cost model
  // and order keys: refused, never misread.
  for (const int version : {2, 3, 0x7f}) {
    std::string bad_version = *blob;
    bad_version[0] = static_cast<char>(version);
    auto resumed =
        DiscoveryState::Deserialize(&*dag, bad_version, nullptr, nullptr);
    ASSERT_FALSE(resumed.ok()) << "version " << version;
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(resumed.status().message().find(
                  "version " + std::to_string(version)),
              std::string::npos)
        << resumed.status();
  }

  // Truncations anywhere must fail cleanly, never crash.
  for (size_t len : {size_t{0}, blob->size() / 4, blob->size() / 2,
                     blob->size() - 1}) {
    auto truncated = DiscoveryState::Deserialize(
        &*dag, std::string_view(blob->data(), len), nullptr, nullptr);
    EXPECT_FALSE(truncated.ok()) << "prefix of " << len << " bytes";
  }

  // A mid-GIWP checkpoint carries pending predicate logs, decoded by the
  // shared PredicateLog codec. Drive until one with two or more
  // observations is serialized, then corrupt it in place.
  ModelTarget target(&fig.model);
  DiscoveryState running(&*dag, EngineOptions::Aid(), Rng(1));
  std::string checkpoint;
  size_t log_at = std::string::npos;
  while (log_at == std::string::npos) {
    auto action = running.NextAction();
    ASSERT_TRUE(action.ok()) << action.status();
    ASSERT_NE(action->kind, DiscoveryAction::Kind::kDone)
        << "no checkpoint ever carried a pending log";
    auto outcome = ExecuteDiscoveryAction(running, *action, &target);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(running.Feed(*action, *outcome).ok());
    auto mid = running.Serialize();
    ASSERT_TRUE(mid.ok()) << mid.status();
    for (const PredicateLog& log : outcome->result.logs) {
      if (log.observed.size() < 2) continue;
      WireWriter encoded;
      EncodePredicateLog(log, encoded);
      log_at = mid->rfind(encoded.buffer());
      if (log_at != std::string::npos) {
        checkpoint = *mid;
        break;
      }
    }
  }
  ASSERT_TRUE(
      DiscoveryState::Deserialize(&*dag, checkpoint, nullptr, nullptr).ok());

  // Layout of the embedded log: failed, outcome, u32 count, then 20-byte
  // (i32 id, i64 start, i64 end) records sorted by id.
  const size_t outcome_at = log_at + 1;
  const auto id_at = [&](size_t i) { return log_at + 6 + 20 * i; };
  const auto put_id = [](std::string& bytes, size_t at, int32_t id) {
    WireWriter w;
    w.I32(id);
    bytes.replace(at, 4, w.buffer());
  };
  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& what) {
    auto resumed = DiscoveryState::Deserialize(&*dag, bytes, nullptr, nullptr);
    ASSERT_FALSE(resumed.ok()) << what;
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument) << what;
  };
  for (int outcome : {3, 200, 255}) {
    std::string bytes = checkpoint;
    bytes[outcome_at] = static_cast<char>(outcome);
    expect_rejected(bytes, "outcome byte " + std::to_string(outcome));
  }
  WireReader first_reader(std::string_view(checkpoint).substr(id_at(0), 4));
  const int32_t first_id = first_reader.I32();
  WireReader second_reader(std::string_view(checkpoint).substr(id_at(1), 4));
  const int32_t second_id = second_reader.I32();
  {
    std::string bytes = checkpoint;
    put_id(bytes, id_at(0), -1);
    expect_rejected(bytes, "negative id");
  }
  {
    std::string bytes = checkpoint;
    put_id(bytes, id_at(1), first_id);
    expect_rejected(bytes, "duplicate id");
  }
  {
    std::string bytes = checkpoint;
    put_id(bytes, id_at(0), second_id);
    put_id(bytes, id_at(1), first_id);
    expect_rejected(bytes, "decreasing ids");
  }
  // Ids are bounded by the DAG's catalog: the log's occurrence bitset is
  // sized by its largest id, so an unbounded one could demand gigabytes.
  WireReader count_reader(std::string_view(checkpoint).substr(log_at + 2, 4));
  const uint32_t count = count_reader.U32();
  for (int32_t id : {static_cast<int32_t>(dag->catalog()->size()),
                     std::numeric_limits<int32_t>::max()}) {
    std::string bytes = checkpoint;
    put_id(bytes, id_at(count - 1), id);
    expect_rejected(bytes, "id " + std::to_string(id) + " outside the catalog");
  }
}

/// The ids a checkpoint keeps for the machine to index by -- candidates,
/// item members, the branch-pruning remainder -- must be nodes of the DAG
/// it resumes on: finishing a junction indexes flag vectors with them.
TEST(DiscoveryStateCheckpointTest, DeserializeRejectsIdsOutsideTheDag) {
  SyntheticAppOptions generator;
  generator.min_threads = generator.max_threads = 8;
  generator.seed = 3;
  auto model = GenerateSyntheticApp(generator);
  ASSERT_TRUE(model.ok()) << model.status();
  auto dag = (*model)->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  // Drive to the first checkpoint inside a junction's binary search and
  // find its candidates vector and its first item's first member.
  ModelTarget target(model->get());
  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  std::string checkpoint;
  size_t candidates_at = 0;
  uint32_t candidate_count = 0;
  size_t member_at = 0;
  while (checkpoint.empty()) {
    auto action = state.NextAction();
    ASSERT_TRUE(action.ok()) << action.status();
    ASSERT_NE(action->kind, DiscoveryAction::Kind::kDone)
        << "no checkpoint fell inside a junction";
    auto outcome = ExecuteDiscoveryAction(state, *action, &target);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(state.Feed(*action, *outcome).ok());
    auto blob = state.Serialize();
    ASSERT_TRUE(blob.ok()) << blob.status();
    // Layout: version, engine options, RNG words, stage, budget flag, then
    // the candidates, causal and spurious vectors and the items.
    WireReader r(*blob);
    r.U8();
    ASSERT_TRUE(DecodeEngineOptions(r).ok());
    for (size_t i = 0; i < Rng::kStateWords; ++i) r.U64();
    const uint8_t stage = r.U8();
    r.U8();
    if (stage != 2) continue;  // not Stage::kBranchInner
    candidates_at = blob->size() - r.remaining();
    candidate_count = r.U32();
    for (uint32_t i = 0; i < candidate_count; ++i) r.I32();
    for (int decided = 0; decided < 2; ++decided) {  // causal, spurious
      const uint32_t n = r.U32();
      for (uint32_t i = 0; i < n; ++i) r.I32();
    }
    ASSERT_GT(r.U32(), 0u);  // items
    ASSERT_GT(r.U32(), 0u);  // the first item's members
    member_at = blob->size() - r.remaining();
    checkpoint = *std::move(blob);
  }
  ASSERT_TRUE(
      DiscoveryState::Deserialize(&*dag, checkpoint, nullptr, nullptr).ok());
  // Within the first junction the remainder still equals the candidates,
  // so the last copy of the candidates' bytes is the remainder.
  const size_t remaining_at = checkpoint.rfind(
      checkpoint.substr(candidates_at, 4 + 4 * size_t{candidate_count}));
  ASSERT_NE(remaining_at, std::string::npos);
  ASSERT_GT(remaining_at, candidates_at);

  const std::pair<const char*, size_t> fields[] = {
      {"candidate", candidates_at + 4},
      {"item member", member_at},
      {"remainder", remaining_at + 4},
  };
  for (const auto& [field, at] : fields) {
    for (int32_t id : {-1, static_cast<int32_t>(dag->catalog()->size()),
                       std::numeric_limits<int32_t>::max()}) {
      std::string bytes = checkpoint;
      WireWriter w;
      w.I32(id);
      bytes.replace(at, 4, w.buffer());
      auto resumed =
          DiscoveryState::Deserialize(&*dag, bytes, nullptr, nullptr);
      ASSERT_FALSE(resumed.ok()) << field << " id " << id;
      EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
          << field << " id " << id;
    }
  }
}

TEST(DiscoveryStateCheckpointTest, EngineOptionsCodecRoundTrips) {
  EngineOptions options = EngineOptions::Tagt();
  options.linear_scan = true;
  options.batched_dispatch = true;
  options.trials_per_intervention = 7;
  options.parallelism = 4;
  options.seed = 0xfeedULL;
  options.budget.enabled = true;
  options.budget.error_tolerance = 0.05;
  options.budget.causal_prior = 0.4;
  options.budget.max_trials_per_round = 9;
  options.budget.max_executions = 1234;
  options.budget.flakiness_prior_alpha = 2.5;
  options.budget.flakiness_prior_beta = 1.5;

  WireWriter writer;
  EncodeEngineOptions(options, writer);
  const std::string bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeEngineOptions(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->topological_order, options.topological_order);
  EXPECT_EQ(decoded->predicate_pruning, options.predicate_pruning);
  EXPECT_EQ(decoded->branch_pruning, options.branch_pruning);
  EXPECT_EQ(decoded->linear_scan, options.linear_scan);
  EXPECT_EQ(decoded->batched_dispatch, options.batched_dispatch);
  EXPECT_EQ(decoded->trials_per_intervention,
            options.trials_per_intervention);
  EXPECT_EQ(decoded->parallelism, options.parallelism);
  EXPECT_EQ(decoded->seed, options.seed);
  EXPECT_EQ(decoded->budget.enabled, options.budget.enabled);
  EXPECT_EQ(decoded->budget.error_tolerance, options.budget.error_tolerance);
  EXPECT_EQ(decoded->budget.causal_prior, options.budget.causal_prior);
  EXPECT_EQ(decoded->budget.max_trials_per_round,
            options.budget.max_trials_per_round);
  EXPECT_EQ(decoded->budget.max_executions, options.budget.max_executions);
  EXPECT_EQ(decoded->budget.flakiness_prior_alpha,
            options.budget.flakiness_prior_alpha);
  EXPECT_EQ(decoded->budget.flakiness_prior_beta,
            options.budget.flakiness_prior_beta);
  // The engine options must be the LAST thing decoded here.
  EXPECT_TRUE(reader.Finish().ok());
  // Process-local pointers never cross the wire.
  EXPECT_EQ(decoded->observer, nullptr);
  EXPECT_EQ(decoded->telemetry, nullptr);
}

TEST(DiscoveryStateCheckpointTest, EngineOptionsInTheV2LayoutAreRefused) {
  // The engine-options bytes older clients' SUBMITs carry. Both layouts
  // end the budget block with the removed cost_ewma_alpha; v2 also puts
  // topology_discount before it and the advice block (suspects,
  // suspect_prior, sd_scores, sd_weight) after it. Decoding them must fail
  // cleanly, however the advice is set.
  const auto common_prefix = [](WireWriter& w) {
    for (int flag = 0; flag < 5; ++flag) w.U8(1);
    w.I32(3);        // trials_per_intervention
    w.I32(1);        // parallelism
    w.U64(42);       // seed
    w.U8(1);         // budget.enabled
    w.F64(0.02);     // error_tolerance
    w.F64(0.5);      // causal_prior
    w.I32(0);        // max_trials_per_round
    w.U64(0);        // max_executions
    w.F64(4.0);      // flakiness_prior_alpha
    w.F64(1.0);      // flakiness_prior_beta
  };
  const auto v2_bytes = [&](uint32_t suspects, uint32_t sd_scores) {
    WireWriter w;
    common_prefix(w);
    w.F64(0.5);      // topology_discount
    w.F64(0.25);     // cost_ewma_alpha
    w.U32(suspects);
    for (uint32_t i = 0; i < suspects; ++i) w.I32(static_cast<int32_t>(i));
    w.F64(0.9);      // suspect_prior
    w.U32(sd_scores);
    for (uint32_t i = 0; i < sd_scores; ++i) {
      w.I32(static_cast<int32_t>(i));
      w.F64(0.5);
    }
    w.F64(0.5);      // sd_weight
    return w.Release();
  };
  const auto refused = [](const std::string& bytes) {
    WireReader reader(bytes);
    auto decoded = DecodeEngineOptions(reader);
    return !(decoded.ok() && reader.Finish().ok());
  };
  for (const auto& [suspects, sd_scores] :
       {std::pair<uint32_t, uint32_t>{0, 0}, {2, 0}, {0, 3}, {1, 4}}) {
    EXPECT_TRUE(refused(v2_bytes(suspects, sd_scores)))
        << suspects << " suspects, " << sd_scores << " sd scores";
  }

  WireWriter v3;
  common_prefix(v3);
  v3.F64(0.25);      // cost_ewma_alpha
  EXPECT_TRUE(refused(v3.Release())) << "v3 layout";
}

TEST(DiscoveryStateCheckpointTest, EveryBoundaryResumesToTheSameReport) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  const EngineOptions options = EngineOptions::Aid();

  ModelTarget baseline_target(&fig.model);
  CausalPathDiscovery discovery(&*dag, &baseline_target, options);
  auto baseline = discovery.Run();
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->rounds, 8u);  // the Figure 4 walkthrough

  bool saw_branch = false;
  bool saw_giwp = false;
  for (uint64_t k = 0; k <= baseline->rounds; ++k) {
    ModelTarget pre(&fig.model);
    ModelTarget post(&fig.model);  // a "fresh host" for the resumed leg
    std::string next_phase;
    auto resumed = CheckpointAfter(&*dag, options, &pre, &post,
                                   static_cast<int>(k), &next_phase);
    ASSERT_TRUE(resumed.ok()) << "checkpoint after " << k << " rounds: "
                              << resumed.status();
    EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed))
        << "checkpoint after " << k << " rounds";
    if (next_phase == "branch") saw_branch = true;
    if (next_phase == "giwp") saw_giwp = true;
  }
  // Figure 4 has a junction, so the boundary sweep must have checkpointed
  // in the middle of BOTH phases.
  EXPECT_TRUE(saw_branch);
  EXPECT_TRUE(saw_giwp);
}

TEST(DiscoveryStateCheckpointTest, TagtAndBatchedBoundariesResumeToo) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  EngineOptions batched = EngineOptions::Linear();
  batched.batched_dispatch = true;
  for (const EngineOptions& options :
       {EngineOptions::Tagt(), batched}) {
    ModelTarget baseline_target(&fig.model);
    CausalPathDiscovery discovery(&*dag, &baseline_target, options);
    auto baseline = discovery.Run();
    ASSERT_TRUE(baseline.ok());

    for (int k : {1, 2, 3}) {
      ModelTarget pre(&fig.model);
      ModelTarget post(&fig.model);
      auto resumed = CheckpointAfter(&*dag, options, &pre, &post, k);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed))
          << "linear_scan=" << options.linear_scan << " checkpoint " << k;
    }
  }
}

/// Figure 4's scan fits in one window; a fig8 model whose batched scan
/// spans several windows must resume identically at every boundary
/// between them.
TEST(DiscoveryStateCheckpointTest, BatchedScanResumesAtEveryWindowBoundary) {
  SyntheticAppOptions generator;
  generator.max_threads = 40;
  generator.seed = 11;
  auto model = GenerateSyntheticApp(generator);
  ASSERT_TRUE(model.ok()) << model.status();
  auto dag = (*model)->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  EngineOptions options = EngineOptions::Linear();
  options.batched_dispatch = true;
  options.trials_per_intervention = 3;

  // The uninterrupted run, counting its windows.
  ModelTarget baseline_target(model->get());
  DiscoveryState state(&*dag, options, Rng(options.seed));
  int windows = 0;
  while (true) {
    auto action = state.NextAction();
    ASSERT_TRUE(action.ok()) << action.status();
    if (action->kind == DiscoveryAction::Kind::kDone) break;
    ASSERT_EQ(action->kind, DiscoveryAction::Kind::kBatch);
    ++windows;
    auto outcome = ExecuteDiscoveryAction(state, *action, &baseline_target);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(state.Feed(*action, *outcome).ok());
  }
  auto baseline = state.Finalize();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(windows, 3);

  const auto history_of = [](const DiscoveryReport& report) {
    std::vector<std::pair<std::vector<PredicateId>, bool>> rounds;
    for (const InterventionRound& round : report.history) {
      EXPECT_EQ(round.phase, "giwp");
      rounds.emplace_back(round.intervened, round.failure_stopped);
    }
    return rounds;
  };
  for (int k = 1; k < windows; ++k) {
    ModelTarget pre(model->get());
    ModelTarget post(model->get());  // a "fresh host" for the resumed leg
    auto resumed = CheckpointAfter(&*dag, options, &pre, &post, k);
    ASSERT_TRUE(resumed.ok()) << "window " << k << ": " << resumed.status();
    EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed)) << "window " << k;
    EXPECT_EQ(history_of(*baseline), history_of(*resumed)) << "window " << k;
  }
}

/// Checkpoint/resume across the six real-world case studies: the resumed
/// leg runs on a freshly built VM target -- the "another host rebuilt the
/// subject from its SubjectSpec" scenario the checkpoint format exists for.
class CaseStudyCheckpointTest : public ::testing::TestWithParam<int> {};

TEST_P(CaseStudyCheckpointTest, MidBranchAndMidGiwpResumeIdentically) {
  const std::string& key =
      CaseStudyKeys()[static_cast<size_t>(GetParam())];
  auto study = MakeCaseStudyByKey(key);
  ASSERT_TRUE(study.ok()) << study.status();

  auto host_a = MakeVmSessionTarget(&study->program, study->target_options);
  ASSERT_TRUE(host_a.ok()) << host_a.status();
  auto dag = (*host_a)->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 3;

  CausalPathDiscovery discovery(&*dag, (*host_a)->intervention_target(),
                                options);
  auto baseline = discovery.Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(baseline->rounds, 2u) << key;

  // Find one checkpoint boundary inside each phase by replaying the run
  // and peeking what the resumed machine would plan next.
  std::vector<int> boundaries;
  {
    int mid_branch = -1;
    int mid_giwp = -1;
    for (uint64_t k = 1; k < baseline->rounds; ++k) {
      auto fresh = MakeVmSessionTarget(&study->program, study->target_options);
      ASSERT_TRUE(fresh.ok());
      std::string next_phase;
      auto probe = CheckpointAfter(&*dag, options,
                                   (*host_a)->intervention_target(),
                                   (*fresh)->intervention_target(),
                                   static_cast<int>(k), &next_phase);
      ASSERT_TRUE(probe.ok()) << key << ": " << probe.status();
      EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *probe))
          << key << " checkpoint " << k;
      if (next_phase == "branch" && mid_branch < 0) {
        mid_branch = static_cast<int>(k);
      }
      if (next_phase == "giwp" && mid_giwp < 0) mid_giwp = static_cast<int>(k);
      if (mid_branch >= 0 && mid_giwp >= 0) break;
    }
    // Every case study ends in a GIWP pass; a branch-phase boundary exists
    // only when the AC-DAG has a junction to prune.
    EXPECT_GE(mid_giwp, 1) << key;
    if (mid_branch >= 0) boundaries.push_back(mid_branch);
    if (mid_giwp >= 0) boundaries.push_back(mid_giwp);
  }
  ASSERT_FALSE(boundaries.empty()) << key;
}

INSTANTIATE_TEST_SUITE_P(AllSix, CaseStudyCheckpointTest,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return CaseStudyKeys()[static_cast<size_t>(
                               info.param)];
                         });

TEST(DiscoveryStateCheckpointTest, FlakyBudgetedRunResumesOnAFreshTarget) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 5;
  options.budget.enabled = true;
  constexpr double kManifest = 0.7;
  constexpr uint64_t kFlakySeed = 77;

  FlakyModelTarget baseline_target(&fig.model, kManifest, kFlakySeed);
  CausalPathDiscovery discovery(&*dag, &baseline_target, options);
  auto baseline = discovery.Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GT(baseline->rounds, 3u);

  for (int k : {1, 3}) {
    FlakyModelTarget pre(&fig.model, kManifest, kFlakySeed);
    // The resumed leg runs on a brand-new flaky target: positional
    // determinism (exec/replicable.h) means seeking it to the checkpoint's
    // execution ledger replays the exact manifestation coin flips the
    // uninterrupted run would have drawn.
    FlakyModelTarget post(&fig.model, kManifest, kFlakySeed);
    uint64_t spent = 0;
    auto resumed = CheckpointAfter(
        &*dag, options, &pre, &post, k, /*next_phase=*/nullptr, &spent,
        [&post](uint64_t executions) { post.SeekTrial(executions); });
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_GT(spent, 0u);
    EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed))
        << "checkpoint " << k;
    EXPECT_EQ(baseline->budgeted_trials_allocated,
              resumed->budgeted_trials_allocated)
        << "checkpoint " << k;
    EXPECT_EQ(baseline->budget_early_stops, resumed->budget_early_stops)
        << "checkpoint " << k;
  }
}

TEST(DiscoveryStateCheckpointTest, ExhaustedBudgetResumesWithConfidence) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 3;
  options.budget.enabled = true;
  options.budget.max_executions = 6;  // runs out mid-discovery

  ModelTarget baseline_target(&fig.model);
  CausalPathDiscovery discovery(&*dag, &baseline_target, options);
  auto baseline = discovery.Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_TRUE(baseline->budget_exhausted);

  ModelTarget pre(&fig.model);
  ModelTarget post(&fig.model);
  auto resumed = CheckpointAfter(&*dag, options, &pre, &post, 2);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed));
  EXPECT_TRUE(resumed->budget_exhausted);
  ASSERT_EQ(baseline->confidence.size(), resumed->confidence.size());
  for (size_t i = 0; i < baseline->confidence.size(); ++i) {
    EXPECT_EQ(baseline->confidence[i].id, resumed->confidence[i].id);
    EXPECT_DOUBLE_EQ(baseline->confidence[i].causal_posterior,
                     resumed->confidence[i].causal_posterior);
  }
}

}  // namespace
}  // namespace aid
