#include "workloads.h"

#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "api/session.h"
#include "api/target_factory.h"
#include "casestudies/case_study.h"
#include "core/discovery_state.h"
#include "core/engine.h"
#include "proc/subprocess_target.h"
#include "service/client.h"
#include "service/service.h"
#include "synth/generator.h"

namespace aidbench {
namespace {

using aid::AcDag;
using aid::DiscoveryReport;
using aid::EngineOptions;
using aid::Result;
using aid::Status;

/// Adds the report's substrate counters to the traced run's layer sums.
void CountReport(const DiscoveryReport& report, LayerCounters& counters) {
  counters["exec.executions"] += static_cast<double>(report.executions);
  counters["exec.speculative"] +=
      static_cast<double>(report.speculative_executions);
  counters["exec.steals"] += static_cast<double>(report.steals);
  counters["exec.straggler_wait_ms"] +=
      static_cast<double>(report.straggler_wait_micros) / 1e3;
  counters["proc.respawns"] += static_cast<double>(report.respawns);
  counters["proc.crashed_trials"] += static_cast<double>(report.crashed_trials);
  counters["budget.trials_allocated"] +=
      static_cast<double>(report.budgeted_trials_allocated);
  counters["budget.early_stops"] +=
      static_cast<double>(report.budget_early_stops);
}

/// The traced twin of CausalPathDiscovery::Run(): the same DiscoveryState
/// loop, with a span around each call into the engine.
Result<DiscoveryReport> DriveTraced(const AcDag* dag,
                                    aid::InterventionTarget* target,
                                    const EngineOptions& engine,
                                    SpanLog* spans, uint64_t parent,
                                    LayerCounters& counters) {
  AID_RETURN_IF_ERROR(aid::ValidateDiscoveryOptions(engine));
  aid::DiscoveryState state(dag, engine, aid::Rng(engine.seed));
  while (true) {
    Result<aid::DiscoveryAction> action = [&] {
      Span span(spans, "core.plan", parent, 0);
      return state.NextAction();
    }();
    counters["core.plan_calls"] += 1;
    if (!action.ok()) return action.status();
    if (action->kind == aid::DiscoveryAction::Kind::kDone) break;
    Result<aid::ActionOutcome> outcome = [&] {
      Span span(spans, "core.execute", parent, 0);
      return aid::ExecuteDiscoveryAction(state, *action, target);
    }();
    if (!outcome.ok()) return outcome.status();
    const Status fed = [&] {
      Span span(spans, "core.absorb", parent, 0);
      return state.Feed(*action, *outcome);
    }();
    AID_RETURN_IF_ERROR(fed);
  }
  Span span(spans, "core.finalize", parent, 0);
  return state.Finalize();
}

/// Judges `report` against the subject's reference run: the same
/// decisions at the same cost (SameDiscoveryOutcome).
void JudgeAgainst(const DiscoveryReport& reference,
                  const DiscoveryReport& report, SessionRecord& record) {
  record.executions = report.executions;
  record.rounds = report.rounds;
  record.correct = aid::SameDiscoveryOutcome(reference, report);
  if (!record.correct) {
    record.error = "report differs from the reference run (rounds " +
                   std::to_string(report.rounds) + " vs " +
                   std::to_string(reference.rounds) + ", executions " +
                   std::to_string(report.executions) + " vs " +
                   std::to_string(reference.executions) + ")";
  }
}

Status Failed(const std::string& what, const SessionRecord& record) {
  return Status::Internal(what + ": " + record.error);
}

// ----------------------------------------------------------------- synth_3k

/// synth_3k: a ~2.7k-predicate synthetic application (400 threads, two
/// parallel blocks), AID preset, one trial -- engine planning dominates.
/// Every session is a fresh SessionBuilder Build() + Run(); the traced path
/// builds the same target through TargetFactory::Create and drives the
/// discovery through DiscoveryState. One model: at ~0.35 s per session a
/// run holds too few sessions to take a tail per subject over several.
class Synth3kWorkload : public Workload {
 public:
  double tail_percentile() const override { return 80; }

  Status Prepare() override {
    aid::SyntheticAppOptions options;
    options.min_threads = options.max_threads = 400;
    options.blocks_min = options.blocks_max = 2;
    options.seed = kModelSeed;
    AID_ASSIGN_OR_RETURN(model_, aid::GenerateSyntheticApp(options));
    subjects_ = {"synth-" + std::to_string(kModelSeed) + "-n" +
                 std::to_string(model_->size())};
    return Status::OK();
  }

  /// No standing system to bring up: set-up is one warm-up session. The
  /// first report becomes the reference every later session must repeat.
  Status SetUp() override {
    LayerCounters unused;
    const SessionRecord warm = RunSession(nullptr, unused);
    if (!warm.ok || !warm.correct) return Failed("warm-up session", warm);
    return Status::OK();
  }
  void TearDown() override {}

  std::vector<SessionRecord> Step(SpanLog* spans,
                                  LayerCounters& counters) override {
    return {RunSession(spans, counters)};
  }

 private:
  static constexpr uint64_t kModelSeed = 101;

  aid::TargetConfig Config() const {
    aid::TargetConfig config;
    config.model = model_.get();
    return config;
  }

  SessionRecord RunSession(SpanLog* spans, LayerCounters& counters) {
    SessionRecord record;
    const EngineOptions engine = EngineOptions::Aid();
    Result<DiscoveryReport> report = Status::Internal("not run");
    const Clock::time_point start = Clock::now();
    if (spans == nullptr) {
      Result<aid::Session> session = aid::SessionBuilder()
                                         .WithTarget("model", Config())
                                         .WithEngineOptions(engine)
                                         .WithDescriptions(false)
                                         .Build();
      if (!session.ok()) {
        report = session.status();
      } else {
        Result<aid::SessionReport> run = session->Run();
        report = run.ok() ? Result<DiscoveryReport>(run->discovery)
                          : Result<DiscoveryReport>(run.status());
      }
      record.ms = MillisBetween(start, Clock::now());
    } else {
      Span root(spans, kSessionLayer, 0, 0);
      Result<std::unique_ptr<aid::SessionTarget>> target = [&] {
        Span span(spans, "api.build", root.id(), 0);
        return aid::TargetFactory::Create("model", Config());
      }();
      Result<AcDag> dag = target.ok() ? [&] {
        Span span(spans, "causal.acdag", root.id(), 0);
        return (*target)->BuildAcDag();
      }() : Result<AcDag>(target.status());
      report = dag.ok() ? DriveTraced(&*dag, (*target)->intervention_target(),
                                      engine, spans, root.id(), counters)
                        : Result<DiscoveryReport>(dag.status());
      root.End();
      record.ms = MillisBetween(start, Clock::now());
      if (report.ok()) CountReport(*report, counters);
    }

    if (!report.ok()) {
      record.error = report.status().ToString();
      return record;
    }
    record.ok = true;
    if (!reference_.has_value()) reference_ = *report;
    JudgeAgainst(*reference_, *report, record);
    if (record.correct && report->root_cause() != model_->root_cause()) {
      record.correct = false;
      record.error = "wrong root cause";
    }
    return record;
  }

  std::unique_ptr<aid::GroundTruthModel> model_;
  std::optional<DiscoveryReport> reference_;
};

// ------------------------------------------------------------ isolated_scan

/// isolated_scan: one ~150-predicate model (40 threads) behind a warm pool
/// of two aid_subject_host processes, batched linear scan with three
/// trials. Spawn, handshake and one warm-up discovery happen in SetUp; the
/// loop then calls Session::Run on the same warm pool.
class IsolatedScanWorkload : public Workload {
 public:
  double tail_percentile() const override { return 85; }

  Status Prepare() override {
    aid::SyntheticAppOptions options;
    options.min_threads = options.max_threads = 40;
    options.blocks_min = options.blocks_max = 1;
    options.seed = kModelSeed;
    AID_ASSIGN_OR_RETURN(model_, aid::GenerateSyntheticApp(options));
    subjects_ = {"synth-" + std::to_string(kModelSeed) + "-n" +
                 std::to_string(model_->size())};
    // Serial in-process reference in the same (batched) dispatch mode.
    AID_ASSIGN_OR_RETURN(std::unique_ptr<aid::SessionTarget> target,
                         aid::MakeModelSessionTarget(model_.get()));
    AID_ASSIGN_OR_RETURN(AcDag dag, target->BuildAcDag());
    EngineOptions serial = Engine();
    serial.batched_dispatch = true;
    aid::CausalPathDiscovery discovery(&dag, target->intervention_target(),
                                       serial);
    AID_ASSIGN_OR_RETURN(reference_, discovery.Run());
    if (reference_.root_cause() != model_->root_cause()) {
      return Status::Internal("isolated_scan reference misses the root cause");
    }
    return Status::OK();
  }

  Status SetUp() override {
    AID_ASSIGN_OR_RETURN(aid::Session session,
                         aid::SessionBuilder()
                             .WithModel(model_.get())
                             .WithEngineOptions(Engine())
                             .WithParallelism(kParallelism)
                             .WithProcessIsolation(kTrialDeadlineMs)
                             .WithDescriptions(false)
                             .Build());
    session_.emplace(std::move(session));
    LayerCounters unused;
    const SessionRecord warm = RunSession(nullptr, unused);
    if (!warm.ok || !warm.correct) return Failed("warm-up session", warm);
    return Status::OK();
  }

  void TearDown() override { session_.reset(); }

  std::vector<SessionRecord> Step(SpanLog* spans,
                                  LayerCounters& counters) override {
    return {RunSession(spans, counters)};
  }

  /// proc.spawn_ms: one subject process's spawn + handshake, measured as
  /// its first trial minus a steady-state trial.
  Status MeasureSetupLayers(LayerCounters& counters) override {
    aid::SubjectSpec spec;
    spec.kind = aid::SubjectKind::kModel;
    spec.model = model_.get();
    for (int rep = 0; rep < 3; ++rep) {
      AID_ASSIGN_OR_RETURN(std::unique_ptr<aid::SubprocessTarget> child,
                           aid::SubprocessTarget::Create(spec));
      const Clock::time_point t0 = Clock::now();
      AID_RETURN_IF_ERROR(child->RunIntervened({}, 1).status());
      const Clock::time_point t1 = Clock::now();
      AID_RETURN_IF_ERROR(child->RunIntervened({}, 1).status());
      const Clock::time_point t2 = Clock::now();
      counters["proc.spawn_ms"] += MillisBetween(t0, t1) - MillisBetween(t1, t2);
      counters["proc.spawns"] += 1;
    }
    return Status::OK();
  }

 private:
  static constexpr uint64_t kModelSeed = 7;
  static constexpr int kParallelism = 2;
  static constexpr int kTrialDeadlineMs = 10000;

  static EngineOptions Engine() {
    EngineOptions engine = EngineOptions::Linear();
    engine.trials_per_intervention = 3;
    return engine;
  }

  SessionRecord RunSession(SpanLog* spans, LayerCounters& counters) {
    SessionRecord record;
    Result<DiscoveryReport> report = Status::Internal("not run");
    const Clock::time_point start = Clock::now();
    if (spans == nullptr) {
      Result<aid::SessionReport> run = session_->Run();
      report = run.ok() ? Result<DiscoveryReport>(run->discovery)
                        : Result<DiscoveryReport>(run.status());
      record.ms = MillisBetween(start, Clock::now());
    } else {
      Span root(spans, kSessionLayer, 0, 0);
      report = DriveTraced(session_->dag(),
                           session_->target().intervention_target(),
                           session_->options().engine, spans, root.id(),
                           counters);
      root.End();
      record.ms = MillisBetween(start, Clock::now());
      if (report.ok()) CountReport(*report, counters);
    }
    if (!report.ok()) {
      record.error = report.status().ToString();
      return record;
    }
    record.ok = true;
    JudgeAgainst(reference_, *report, record);
    if (record.correct && (report->crashed_trials != 0 ||
                           report->timed_out_trials != 0)) {
      record.correct = false;
      record.error = "subject processes crashed or timed out";
    }
    return record;
  }

  std::unique_ptr<aid::GroundTruthModel> model_;
  DiscoveryReport reference_;
  std::optional<aid::Session> session_;
};

// -------------------------------------------------------------- service_mix

/// service_mix: an in-process DiscoveryService with two workers, fed
/// closed-loop waves of three concurrent client connections. Each wave
/// holds one case study (observed on the service's accept thread), one
/// deterministic model and one flaky model (m = 0.8) under adaptive
/// budgeting; every third wave the deterministic session checkpoints after
/// a few rounds and resumes on a fresh connection.
class ServiceMixWorkload : public Workload {
 public:
  explicit ServiceMixWorkload(uint64_t seed) : seed_(seed) {}
  double tail_percentile() const override { return 95; }
  uint64_t cycle_steps() const override { return rotation_.size() / 3; }

  Status Prepare() override {
    std::vector<size_t> cases;
    for (const std::string& key : aid::CaseStudyKeys()) {
      AID_ASSIGN_OR_RETURN(aid::CaseStudy study, aid::MakeCaseStudyByKey(key));
      Subject subject;
      subject.label = "case:" + key;
      subject.spec.kind = aid::SubjectKind::kCase;
      subject.spec.case_key = key;
      subject.engine = EngineOptions::Aid();
      subject.engine.trials_per_intervention = 3;
      AID_ASSIGN_OR_RETURN(
          std::unique_ptr<aid::SessionTarget> target,
          aid::MakeVmSessionTarget(&study.program, study.target_options,
                                   "case"));
      AID_ASSIGN_OR_RETURN(subject.reference,
                           SoloRun(*target, subject.engine));
      if (!subject.reference.has_root_cause() ||
          target->catalog()
                  ->Describe(subject.reference.root_cause(),
                             target->method_names(), target->object_names())
                  .find(study.expected_root_substring) == std::string::npos) {
        return Status::Internal("service_mix reference misses " + key);
      }
      cases.push_back(subjects_.size());
      AddSubject(std::move(subject));
    }

    AID_ASSIGN_OR_RETURN(model_, MakeModel(kModelSeed));
    Subject model;
    model.label = "model";
    model.spec.kind = aid::SubjectKind::kModel;
    model.spec.model = model_.get();
    model.engine = EngineOptions::Aid();
    AID_ASSIGN_OR_RETURN(std::unique_ptr<aid::SessionTarget> model_target,
                         aid::MakeModelSessionTarget(model_.get()));
    AID_ASSIGN_OR_RETURN(model.reference,
                         SoloRun(*model_target, model.engine));
    if (model.reference.root_cause() != model_->root_cause() ||
        model.reference.rounds <= kCheckpointAfterRounds) {
      return Status::Internal("service_mix model cannot be checkpointed");
    }
    Subject resumed = model;
    resumed.label = "model+resume";
    resumed.checkpoint_after_rounds = kCheckpointAfterRounds;
    const size_t model_subject = subjects_.size();
    AddSubject(std::move(model));
    const size_t resumed_subject = subjects_.size();
    AddSubject(std::move(resumed));

    AID_ASSIGN_OR_RETURN(flaky_model_, MakeModel(kFlakyModelSeed));
    Subject flaky;
    flaky.label = "flaky";
    flaky.spec.kind = aid::SubjectKind::kFlakyModel;
    flaky.spec.model = flaky_model_.get();
    flaky.spec.manifest_probability = kManifestProbability;
    flaky.spec.flaky_seed = kFlakySeed;
    flaky.engine = EngineOptions::Aid();
    flaky.engine.trials_per_intervention = 6;
    flaky.engine.budget.enabled = true;
    AID_ASSIGN_OR_RETURN(
        std::unique_ptr<aid::SessionTarget> flaky_target,
        aid::MakeModelSessionTarget(flaky_model_.get(), kManifestProbability,
                                    kFlakySeed, "flaky"));
    AID_ASSIGN_OR_RETURN(flaky.reference,
                         SoloRun(*flaky_target, flaky.engine));
    if (flaky.reference.root_cause() != flaky_model_->root_cause()) {
      return Status::Internal("service_mix flaky reference misses the cause");
    }
    const size_t flaky_subject = subjects_.size();
    AddSubject(std::move(flaky));

    for (size_t wave = 0; wave < cases.size(); ++wave) {
      rotation_.push_back(cases[wave]);
      rotation_.push_back(wave % 3 == 2 ? resumed_subject : model_subject);
      rotation_.push_back(flaky_subject);
    }
    start_ = static_cast<size_t>(seed_ % cycle_steps());
    return Status::OK();
  }

  Status SetUp() override {
    aid::ServiceOptions options;
    options.workers = 2;
    options.max_sessions = 8;
    AID_ASSIGN_OR_RETURN(service_, aid::DiscoveryService::Start(options));
    // One warm-up pass over the waves, the same work whatever the seed.
    LayerCounters unused;
    for (size_t wave = 0; wave < cycle_steps(); ++wave) {
      for (const SessionRecord& warm : RunWave(wave, nullptr, unused)) {
        if (!warm.ok || !warm.correct) return Failed("warm-up wave", warm);
      }
    }
    return Status::OK();
  }

  void TearDown() override { service_.reset(); }

  std::vector<SessionRecord> Step(SpanLog* spans,
                                  LayerCounters& counters) override {
    return RunWave((start_ + step_++) % cycle_steps(), spans, counters);
  }

 private:
  struct Subject {
    std::string label;
    aid::SubjectSpec spec;
    EngineOptions engine;
    uint64_t checkpoint_after_rounds = 0;
    DiscoveryReport reference;
  };

  static constexpr uint64_t kModelSeed = 5;
  static constexpr uint64_t kFlakyModelSeed = 3;
  static constexpr double kManifestProbability = 0.8;
  static constexpr uint64_t kFlakySeed = 1;
  static constexpr uint64_t kCheckpointAfterRounds = 3;
  static constexpr int kAwaitMs = 60000;

  static Result<std::unique_ptr<aid::GroundTruthModel>> MakeModel(
      uint64_t seed) {
    aid::SyntheticAppOptions options;
    options.min_threads = options.max_threads = 20;
    options.seed = seed;
    return aid::GenerateSyntheticApp(options);
  }

  static Result<DiscoveryReport> SoloRun(aid::SessionTarget& target,
                                         const EngineOptions& engine) {
    AID_ASSIGN_OR_RETURN(AcDag dag, target.BuildAcDag());
    aid::CausalPathDiscovery discovery(&dag, target.intervention_target(),
                                       engine);
    return discovery.Run();
  }

  void AddSubject(Subject subject) {
    subjects_.push_back(subject.label);
    mix_.push_back(std::move(subject));
  }

  std::vector<SessionRecord> RunWave(size_t wave, SpanLog* spans,
                                     LayerCounters& counters) {
    std::vector<SessionRecord> records(3);
    std::vector<LayerCounters> lane_counters(3);
    ConnectTurn turn;
    const Clock::time_point wave_start = Clock::now();
    std::vector<std::thread> clients;
    for (size_t lane = 0; lane < 3; ++lane) {
      clients.emplace_back([&, lane] {
        records[lane] = RunClient(rotation_[3 * wave + lane], spans,
                                  static_cast<uint32_t>(lane + 1), wave_start,
                                  turn, lane_counters[lane]);
      });
    }
    for (std::thread& client : clients) client.join();
    for (const LayerCounters& lane : lane_counters) {
      for (const auto& [name, value] : lane) counters[name] += value;
    }
    return records;
  }

  /// Passes the right to connect from one client of a wave to the next.
  /// The service admits connections one at a time, so this fixes the order
  /// (case study first, its observation stalling the other two) instead of
  /// leaving it to whichever client thread starts first.
  struct ConnectTurn {
    std::mutex mu;
    std::condition_variable cv;
    uint32_t next = 1;  ///< lane allowed to connect; guarded by mu

    void Wait(uint32_t lane) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return next == lane; });
    }
    void Pass() {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++next;
      }
      cv.notify_all();
    }
  };

  /// One session over one connection (two when it checkpoints and
  /// resumes), timed from the wave's start: the three users arrive
  /// together.
  SessionRecord RunClient(size_t index, SpanLog* spans, uint32_t lane,
                          Clock::time_point wave_start, ConnectTurn& turn,
                          LayerCounters& counters) {
    const Subject& subject = mix_[index];
    SessionRecord record;
    record.subject = index;
    aid::ServiceSubmission submission;
    submission.spec = subject.spec;
    submission.engine = subject.engine;
    submission.checkpoint_after_rounds = subject.checkpoint_after_rounds;

    Span root(spans, kSessionLayer, 0, lane);
    Result<aid::ServiceOutcome> outcome = [&]() -> Result<aid::ServiceOutcome> {
      std::unique_ptr<aid::ServiceClient> client;
      {
        Span span(spans, "service.admit", root.id(), lane);
        turn.Wait(lane);
        Result<std::unique_ptr<aid::ServiceClient>> connected =
            aid::ServiceClient::Connect(service_->endpoint());
        turn.Pass();
        AID_ASSIGN_OR_RETURN(client, std::move(connected));
        AID_RETURN_IF_ERROR(client->Submit(submission).status());
      }
      Span span(spans, "service.await", root.id(), lane);
      return client->Await(kAwaitMs);
    }();
    if (outcome.ok() && outcome->checkpointed) {
      counters["service.checkpoints"] += 1;
      counters["service.checkpoint_bytes"] +=
          static_cast<double>(outcome->checkpoint.state.size());
      submission.checkpoint_after_rounds = 0;
      submission.resume_state = std::move(outcome->checkpoint.state);
      outcome = [&]() -> Result<aid::ServiceOutcome> {
        Span span(spans, "service.resume", root.id(), lane);
        AID_ASSIGN_OR_RETURN(std::unique_ptr<aid::ServiceClient> client,
                             aid::ServiceClient::Connect(service_->endpoint()));
        AID_RETURN_IF_ERROR(client->Submit(submission).status());
        return client->Await(kAwaitMs);
      }();
    }
    root.End();
    record.ms = MillisBetween(wave_start, Clock::now());

    if (!outcome.ok()) {
      record.error = outcome.status().ToString();
      return record;
    }
    if (outcome->checkpointed) {
      record.error = "resumed session checkpointed again";
      return record;
    }
    record.ok = true;
    if (spans != nullptr) CountReport(outcome->report, counters);
    JudgeAgainst(subject.reference, outcome->report, record);
    if (record.correct && subject.checkpoint_after_rounds > 0 &&
        submission.resume_state.empty()) {
      record.correct = false;
      record.error = "session never checkpointed";
    }
    return record;
  }

  uint64_t seed_;
  std::vector<Subject> mix_;
  /// Indexes into mix_, three per wave: case study, deterministic model
  /// (resumed every third wave), flaky model.
  std::vector<size_t> rotation_;
  size_t start_ = 0;
  size_t step_ = 0;
  std::unique_ptr<aid::GroundTruthModel> model_;
  std::unique_ptr<aid::GroundTruthModel> flaky_model_;
  std::unique_ptr<aid::DiscoveryService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "synth_3k") return std::make_unique<Synth3kWorkload>();
  if (name == "isolated_scan") return std::make_unique<IsolatedScanWorkload>();
  if (name == "service_mix") return std::make_unique<ServiceMixWorkload>(seed);
  return nullptr;
}

}  // namespace aidbench
