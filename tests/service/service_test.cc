// Tests of the multi-tenant discovery daemon (service/service.h) and its
// wire protocol (service/protocol.h):
//
//   * concurrent sessions: >= 3 discoveries interleaved on one daemon, each
//     report bit-identical (SameDiscoveryOutcome) to a solo engine run;
//   * admission: at max_sessions the daemon answers a structured
//     FAILED_PRECONDITION ERROR, and a drained slot admits the next SUBMIT;
//   * off-thread builds: a session is built on a worker as its first turn,
//     so a case study held inside its build delays no other client's
//     admission, counts toward the cap, and a failed build or a Stop()
//     still answers the client with a structured ERROR;
//   * quota: unbudgeted sessions crossing session_quota are stopped with an
//     ERROR; budgeted sessions have their global budget clamped and finish
//     with a best-effort report instead;
//   * checkpoint/resume: checkpoint_after_rounds detaches with the state
//     blob, a fresh SUBMIT with the blob resumes to the identical report --
//     flaky subjects included (the service reparks the rebuilt target at
//     the checkpoint's trial cursor);
//   * codec: the DiscoveryReport round-trips field-for-field, and corrupt
//     payloads are rejected rather than misread.
//
// Targets stay in-process (no fork), so the suite runs under TSan in CI.

#include "service/service.h"

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/target_factory.h"
#include "core/engine.h"
#include "service/client.h"
#include "service/protocol.h"
#include "synth/model.h"

namespace aid {
namespace {

#if AID_NET_SUPPORTED

/// The paper's Figure 4 example: p10's anomalous interval has temporal
/// paths from two true causes (p3, p11) plus confounded non-causes.
std::unique_ptr<GroundTruthModel> Figure4Model() {
  auto model = std::make_unique<GroundTruthModel>();
  model->AddFailure();
  std::vector<PredicateId> p(12, kInvalidPredicate);
  for (int i = 1; i <= 11; ++i) p[static_cast<size_t>(i)] = model->AddPredicate(i);
  auto edge = [&](int a, int b) { model->AddTemporalEdge(p[static_cast<size_t>(a)], p[static_cast<size_t>(b)]); };
  edge(1, 2); edge(2, 3); edge(3, 4); edge(4, 5); edge(5, 6);
  edge(3, 7); edge(7, 8); edge(7, 9); edge(8, 11); edge(9, 11);
  edge(6, 10); edge(8, 10); edge(9, 10);
  model->SetCausalChain({p[1], p[2], p[11]});
  model->SetTrueParents(p[10], {p[3], p[11]});
  return model;
}

std::unique_ptr<GroundTruthModel> ChainModel(int length) {
  auto model = std::make_unique<GroundTruthModel>();
  model->AddFailure();
  std::vector<PredicateId> chain;
  for (int i = 0; i < length; ++i) chain.push_back(model->AddPredicate(i));
  for (int i = 0; i + 1 < length; ++i) {
    model->AddTemporalEdge(chain[static_cast<size_t>(i)],
                           chain[static_cast<size_t>(i) + 1]);
  }
  model->SetCausalChain({chain[static_cast<size_t>(length / 2)]});
  return model;
}

SubjectSpec ModelSpec(const GroundTruthModel* model) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model;
  return spec;
}

SubjectSpec FlakySpec(const GroundTruthModel* model, double manifest,
                      uint64_t seed) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kFlakyModel;
  spec.model = model;
  spec.manifest_probability = manifest;
  spec.flaky_seed = seed;
  return spec;
}

SubjectSpec CaseSpec(const std::string& key) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kCase;
  spec.case_key = key;
  return spec;
}

/// The latch HeldCaseBuilds closes: while it is held, every target build of
/// the "case" backend waits at it before observing anything.
struct CaseBuildLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  int waiting = 0;  ///< builds currently at the latch
};

CaseBuildLatch& Latch() {
  static CaseBuildLatch latch;
  return latch;
}

/// The "case" backend behind the latch. It delegates to the per-key
/// built-in, so with the latch open it builds exactly what "case" does.
Result<std::unique_ptr<SessionTarget>> LatchedCaseTarget(
    const TargetConfig& config) {
  CaseBuildLatch& latch = Latch();
  {
    std::unique_lock<std::mutex> lock(latch.mu);
    ++latch.waiting;
    latch.cv.notify_all();
    latch.cv.wait(lock, [&] { return !latch.held; });
    --latch.waiting;
  }
  return TargetFactory::Create("case:" + config.case_study, config);
}

/// Holds case-study builds inside the service for as long as a test needs.
/// Destruction releases the latch and then joins the client threads started
/// with Spawn, so a failed assertion never leaves a build held or a thread
/// unjoined. Declare it after the service it is used with.
class HeldCaseBuilds {
 public:
  HeldCaseBuilds() {
    TargetFactory::Register("case", LatchedCaseTarget);
    std::lock_guard<std::mutex> lock(Latch().mu);
    Latch().held = true;
  }
  ~HeldCaseBuilds() { ReleaseAndJoin(); }
  HeldCaseBuilds(const HeldCaseBuilds&) = delete;
  HeldCaseBuilds& operator=(const HeldCaseBuilds&) = delete;

  void Spawn(std::function<void()> body) {
    threads_.emplace_back(std::move(body));
  }

  /// Waits (up to 10 s) until `count` builds are held at the latch.
  bool AwaitHeld(int count) {
    std::unique_lock<std::mutex> lock(Latch().mu);
    return Latch().cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return Latch().waiting >= count;
    });
  }

  int held() {
    std::lock_guard<std::mutex> lock(Latch().mu);
    return Latch().waiting;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(Latch().mu);
      Latch().held = false;
    }
    Latch().cv.notify_all();
  }

  void ReleaseAndJoin() {
    Release();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

/// One whole client conversation; the first failure is the result.
Result<ServiceOutcome> RunSession(const Endpoint& endpoint,
                                  const ServiceSubmission& submission) {
  AID_ASSIGN_OR_RETURN(std::unique_ptr<ServiceClient> client,
                       ServiceClient::Connect(endpoint));
  AID_RETURN_IF_ERROR(client->Submit(submission).status());
  return client->Await(/*timeout_ms=*/60000);
}

/// The terminal frame is written before the session is unregistered, so a
/// client can observe its own session for one more scheduler beat; drains
/// within that beat.
void ExpectDrained(DiscoveryService* service) {
  for (int attempt = 0; attempt < 250; ++attempt) {
    if (service->live_sessions() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(service->live_sessions(), 0);
}

/// The ground truth every service report is held to: a solo blocking engine
/// run of the same subject and options.
DiscoveryReport SoloRun(SessionTarget& target, const EngineOptions& options) {
  auto dag = target.BuildAcDag();
  EXPECT_TRUE(dag.ok()) << dag.status();
  CausalPathDiscovery engine(&*dag, target.intervention_target(), options);
  auto report = engine.Run();
  EXPECT_TRUE(report.ok()) << report.status();
  return *report;
}

DiscoveryReport SoloRun(const GroundTruthModel* model,
                        const EngineOptions& options,
                        double manifest = 1.0, uint64_t seed = 1) {
  auto target = manifest < 1.0
                    ? MakeModelSessionTarget(model, manifest, seed, "flaky")
                    : MakeModelSessionTarget(model);
  EXPECT_TRUE(target.ok()) << target.status();
  return SoloRun(**target, options);
}

DiscoveryReport CaseSoloRun(const std::string& key,
                            const EngineOptions& options) {
  auto target = TargetFactory::Create("case:" + key, TargetConfig{});
  EXPECT_TRUE(target.ok()) << target.status();
  return SoloRun(**target, options);
}

/// The case study the held-build tests submit, and how.
const char kHeldCase[] = "kafka";

ServiceSubmission CaseSubmission() {
  ServiceSubmission submission;
  submission.label = std::string("case:") + kHeldCase;
  submission.spec = CaseSpec(kHeldCase);
  submission.engine = EngineOptions::Aid();
  submission.engine.trials_per_intervention = 3;
  return submission;
}

TEST(ServiceProtocolTest, ReportRoundTripsFieldForField) {
  DiscoveryReport report;
  report.causal_path = {3, 11, 7};
  report.spurious = {2, 9};
  report.rounds = 1u << 20;
  report.executions = (1ull << 33) + 17;  // past 32 bits: widened counters
  report.speculative_executions = 5;
  report.respawns = 2;
  report.crashed_trials = 4;
  report.timed_out_trials = 1;
  report.steals = 9;
  report.straggler_wait_micros = 12345;
  report.replica_trials = {100, 80, 120};
  InterventionRound round;
  round.intervened = {5, 6};
  round.failure_stopped = true;
  round.phase = "branch";
  report.history = {round};
  report.path_is_chain = true;
  report.budgeted_trials_allocated = 64;
  report.budgeted_trials_saved = -3;
  report.budget_early_stops = 7;
  report.budget_exhausted = true;
  report.confidence = {{3, 0.97}, {11, 0.5}};

  ReportMsg msg;
  msg.session_id = 42;
  msg.report = report;
  auto decoded = DecodeReportMsg(EncodeReportMsg(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->session_id, 42u);
  const DiscoveryReport& out = decoded->report;
  EXPECT_TRUE(SameDiscoveryOutcome(out, report));
  EXPECT_EQ(out.respawns, report.respawns);
  EXPECT_EQ(out.crashed_trials, report.crashed_trials);
  EXPECT_EQ(out.timed_out_trials, report.timed_out_trials);
  EXPECT_EQ(out.steals, report.steals);
  EXPECT_EQ(out.straggler_wait_micros, report.straggler_wait_micros);
  EXPECT_EQ(out.replica_trials, report.replica_trials);
  ASSERT_EQ(out.history.size(), 1u);
  EXPECT_EQ(out.history[0].intervened, round.intervened);
  EXPECT_EQ(out.history[0].failure_stopped, true);
  EXPECT_EQ(out.history[0].phase, "branch");
  EXPECT_EQ(out.path_is_chain, true);
  EXPECT_EQ(out.budgeted_trials_allocated, report.budgeted_trials_allocated);
  EXPECT_EQ(out.budgeted_trials_saved, report.budgeted_trials_saved);
  EXPECT_EQ(out.budget_early_stops, report.budget_early_stops);
  EXPECT_EQ(out.budget_exhausted, true);
  ASSERT_EQ(out.confidence.size(), 2u);
  EXPECT_EQ(out.confidence[0].id, 3);
  EXPECT_DOUBLE_EQ(out.confidence[0].causal_posterior, 0.97);

  // Corrupt payloads fail cleanly: truncation can never misread.
  const std::string bytes = EncodeReportMsg(msg);
  for (size_t cut : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeReportMsg(std::string_view(bytes).substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(ServiceProtocolTest, SubmitAndCheckpointRoundTrip) {
  SubmitMsg submit;
  submit.label = "kafka-debug";
  submit.spec = "spec-bytes";
  submit.engine = "engine-bytes";
  submit.checkpoint_after_rounds = 5;
  submit.state = std::string("blob\0with\0nuls", 14);
  auto submit2 = DecodeSubmit(EncodeSubmit(submit));
  ASSERT_TRUE(submit2.ok()) << submit2.status();
  EXPECT_EQ(submit2->label, submit.label);
  EXPECT_EQ(submit2->spec, submit.spec);
  EXPECT_EQ(submit2->engine, submit.engine);
  EXPECT_EQ(submit2->checkpoint_after_rounds, 5u);
  EXPECT_EQ(submit2->state, submit.state);

  CheckpointMsg checkpoint;
  checkpoint.session_id = 7;
  checkpoint.rounds = 3;
  checkpoint.executions = 19;
  checkpoint.state = "state-bytes";
  auto checkpoint2 = DecodeCheckpoint(EncodeCheckpoint(checkpoint));
  ASSERT_TRUE(checkpoint2.ok()) << checkpoint2.status();
  EXPECT_EQ(checkpoint2->session_id, 7u);
  EXPECT_EQ(checkpoint2->rounds, 3u);
  EXPECT_EQ(checkpoint2->executions, 19u);
  EXPECT_EQ(checkpoint2->state, "state-bytes");
}

TEST(ServiceTest, ThreeConcurrentSessionsMatchSoloRuns) {
  // Three different subjects, three different presets, one daemon: the
  // interleaving must never leak state across sessions.
  auto figure4 = Figure4Model();
  auto chain = ChainModel(9);
  auto wide = ChainModel(17);
  struct Plan {
    const GroundTruthModel* model;
    EngineOptions options;
    std::string label;
  };
  std::vector<Plan> plans = {
      {figure4.get(), EngineOptions::Aid(), "aid-figure4"},
      {chain.get(), EngineOptions::Tagt(), "tagt-chain"},
      {wide.get(), EngineOptions::Linear(), "linear-wide"},
  };

  ServiceOptions options;
  options.workers = 3;
  options.telemetry = Telemetry::Create();
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  // Connect + submit all three before awaiting anything, so the daemon
  // holds all three sessions live at once.
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (const Plan& plan : plans) {
    auto client = ServiceClient::Connect((*service)->endpoint());
    ASSERT_TRUE(client.ok()) << client.status();
    ServiceSubmission submission;
    submission.label = plan.label;
    submission.spec = ModelSpec(plan.model);
    submission.engine = plan.options;
    auto accepted = (*client)->Submit(submission);
    ASSERT_TRUE(accepted.ok()) << accepted.status();
    EXPECT_FALSE(accepted->resumed);
    clients.push_back(std::move(*client));
  }
  EXPECT_EQ((*service)->sessions_accepted(), 3u);

  for (size_t i = 0; i < plans.size(); ++i) {
    auto outcome = clients[i]->Await(/*timeout_ms=*/60000);
    ASSERT_TRUE(outcome.ok()) << plans[i].label << ": " << outcome.status();
    ASSERT_FALSE(outcome->checkpointed);
    const DiscoveryReport solo = SoloRun(plans[i].model, plans[i].options);
    EXPECT_TRUE(SameDiscoveryOutcome(outcome->report, solo))
        << plans[i].label;
    EXPECT_EQ(outcome->report.history.size(), solo.history.size())
        << plans[i].label;
  }
  ExpectDrained(service->get());

  // Per-session labeled counters reconcile with the reports they produced.
  const MetricsSnapshot metrics =
      options.telemetry->Snapshot().metrics;
  for (size_t i = 0; i < plans.size(); ++i) {
    const DiscoveryReport solo = SoloRun(plans[i].model, plans[i].options);
    EXPECT_EQ(metrics.Value("aid_service_rounds_total",
                            {{"session", plans[i].label}}),
              solo.rounds)
        << plans[i].label;
    EXPECT_EQ(metrics.Value("aid_service_executions_total",
                            {{"session", plans[i].label}}),
              solo.executions)
        << plans[i].label;
  }
  EXPECT_EQ(metrics.Value("aid_service_reports_total", {}), 3u);
}

TEST(ServiceTest, SessionPastTheCapGetsAStructuredError) {
  // A long chain under Linear x many trials keeps the occupant session live
  // for ~150k executions (a few hundred ms) -- plenty to observe the
  // rejection even on a loaded machine. At 32 trials it drained in ~8 ms,
  // and the second client was sometimes admitted into the freed slot.
  auto occupant_model = ChainModel(301);
  auto model = Figure4Model();
  ServiceOptions options;
  options.max_sessions = 1;
  options.workers = 1;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto occupant = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(occupant.ok()) << occupant.status();
  ServiceSubmission slow;
  slow.label = "occupant";
  slow.spec = ModelSpec(occupant_model.get());
  slow.engine = EngineOptions::Linear();
  slow.engine.trials_per_intervention = 1024;
  ASSERT_TRUE((*occupant)->Submit(slow).ok());

  ServiceSubmission submission;
  submission.label = "rejected";
  submission.spec = ModelSpec(model.get());
  submission.engine = EngineOptions::Aid();
  auto client = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(client.ok()) << client.status();
  auto rejected = (*client)->Submit(submission);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("session cap"),
            std::string::npos)
      << rejected.status();
  EXPECT_NE(rejected.status().message().find("--max-sessions 1"),
            std::string::npos)
      << rejected.status();

  // Once the occupant drains, the freed slot admits the retry the error
  // message promises.
  auto occupant_outcome = (*occupant)->Await(/*timeout_ms=*/120000);
  ASSERT_TRUE(occupant_outcome.ok()) << occupant_outcome.status();
  Result<AcceptedMsg> admitted = Status::Internal("never tried");
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto retry = ServiceClient::Connect((*service)->endpoint());
    ASSERT_TRUE(retry.ok()) << retry.status();
    admitted = (*retry)->Submit(submission);
    if (admitted.ok()) {
      auto outcome = (*retry)->Await(/*timeout_ms=*/60000);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(admitted.ok()) << admitted.status();
}

TEST(ServiceTest, QuotaStopsUnbudgetedSessionsWithAnError) {
  auto model = Figure4Model();
  ServiceOptions options;
  options.session_quota = 3;  // Figure 4 under AID needs ~24 executions
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto client = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "over-quota";
  submission.spec = ModelSpec(model.get());
  submission.engine = EngineOptions::Aid();
  ASSERT_TRUE((*client)->Submit(submission).ok());
  auto outcome = (*client)->Await(/*timeout_ms=*/60000);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(outcome.status().message().find("quota"), std::string::npos)
      << outcome.status();
  ExpectDrained(service->get());
}

TEST(ServiceTest, QuotaClampsBudgetedSessionsToABestEffortReport) {
  auto model = Figure4Model();
  ServiceOptions options;
  options.session_quota = 6;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto client = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "budgeted";
  submission.spec = ModelSpec(model.get());
  submission.engine = EngineOptions::Aid();
  submission.engine.trials_per_intervention = 3;
  submission.engine.budget.enabled = true;  // max_executions <- quota
  ASSERT_TRUE((*client)->Submit(submission).ok());
  auto outcome = (*client)->Await(/*timeout_ms=*/60000);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_FALSE(outcome->checkpointed);
  EXPECT_TRUE(outcome->report.budget_exhausted);
  EXPECT_LE(outcome->report.executions, 6u + 3u);  // quota + one last round
  EXPECT_FALSE(outcome->report.confidence.empty());

  // The clamp is what the engine sees: a solo run under the same explicit
  // budget produces the identical degraded report.
  EngineOptions solo_options = submission.engine;
  solo_options.budget.max_executions = 6;
  const DiscoveryReport solo = SoloRun(model.get(), solo_options);
  EXPECT_TRUE(SameDiscoveryOutcome(outcome->report, solo));
}

TEST(ServiceTest, CheckpointDetachesAndResumeFinishesIdentically) {
  auto model = Figure4Model();
  const EngineOptions engine = EngineOptions::Aid();
  const DiscoveryReport solo = SoloRun(model.get(), engine);
  ASSERT_GE(solo.rounds, 4u);

  ServiceOptions options;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto client = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "checkpointed";
  submission.spec = ModelSpec(model.get());
  submission.engine = engine;
  submission.checkpoint_after_rounds = 3;
  ASSERT_TRUE((*client)->Submit(submission).ok());
  auto checkpointed = (*client)->Await(/*timeout_ms=*/60000);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status();
  ASSERT_TRUE(checkpointed->checkpointed);
  EXPECT_GE(checkpointed->checkpoint.rounds, 3u);
  EXPECT_LT(checkpointed->checkpoint.rounds, solo.rounds);
  EXPECT_FALSE(checkpointed->checkpoint.state.empty());
  ExpectDrained(service->get());  // detached

  // Resume on a FRESH connection -- in real deployments possibly a
  // different daemon; only the spec and the blob carry over.
  auto resumer = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(resumer.ok()) << resumer.status();
  ServiceSubmission resume;
  resume.label = "resumed";
  resume.spec = ModelSpec(model.get());
  resume.engine = engine;
  resume.resume_state = checkpointed->checkpoint.state;
  auto accepted = (*resumer)->Submit(resume);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_TRUE(accepted->resumed);
  auto outcome = (*resumer)->Await(/*timeout_ms=*/60000);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_FALSE(outcome->checkpointed);
  EXPECT_TRUE(SameDiscoveryOutcome(outcome->report, solo));
  EXPECT_EQ(outcome->report.history.size(), solo.history.size());
}

TEST(ServiceTest, FlakySubjectResumesOnTheSameCoinFlips) {
  // The resumed session runs on a REBUILT flaky target; the service must
  // park it at the checkpoint's trial cursor or the manifestation flips
  // diverge from the uninterrupted run.
  auto model = Figure4Model();
  EngineOptions engine = EngineOptions::Aid();
  engine.trials_per_intervention = 5;
  const double kManifest = 0.7;
  const uint64_t kSeed = 77;
  const DiscoveryReport solo = SoloRun(model.get(), engine, kManifest, kSeed);

  ServiceOptions options;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto client = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "flaky";
  submission.spec = FlakySpec(model.get(), kManifest, kSeed);
  submission.engine = engine;
  submission.checkpoint_after_rounds = 2;
  ASSERT_TRUE((*client)->Submit(submission).ok());
  auto checkpointed = (*client)->Await(/*timeout_ms=*/60000);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status();
  ASSERT_TRUE(checkpointed->checkpointed);

  auto resumer = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(resumer.ok()) << resumer.status();
  ServiceSubmission resume;
  resume.label = "flaky-resumed";
  resume.spec = FlakySpec(model.get(), kManifest, kSeed);
  resume.engine = engine;
  resume.resume_state = checkpointed->checkpoint.state;
  ASSERT_TRUE((*resumer)->Submit(resume).ok());
  auto outcome = (*resumer)->Await(/*timeout_ms=*/60000);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_FALSE(outcome->checkpointed);
  EXPECT_TRUE(SameDiscoveryOutcome(outcome->report, solo));
}

TEST(ServiceTest, RejectsAFrameThatIsNotASubmit) {
  ServiceOptions options;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto fd = ConnectTo((*service)->endpoint(), /*timeout_ms=*/5000);
  ASSERT_TRUE(fd.ok()) << fd.status();
  SocketChannel channel(*fd);
  auto hello = channel.Read(/*deadline_ms=*/5000);
  ASSERT_TRUE(hello.ok()) << hello.status();
  ASSERT_TRUE(channel.Write(ProcMsgType::kShutdown, "").ok());
  auto answer = channel.Read(/*deadline_ms=*/5000);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->type, ProcMsgType::kError);
  auto error = DecodeError(answer->payload);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->code, StatusCode::kInvalidArgument);
  EXPECT_NE(error->message.find("SUBMIT"), std::string::npos);
}

TEST(ServiceTest, RejectsACorruptStateBlob) {
  auto model = Figure4Model();
  ServiceOptions options;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto client = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "corrupt";
  submission.spec = ModelSpec(model.get());
  submission.engine = EngineOptions::Aid();
  submission.resume_state = "\x7f garbage that is no checkpoint";
  auto rejected = (*client)->Submit(submission);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  ExpectDrained(service->get());
}

TEST(ServiceTest, HeldCaseStudyBuildDelaysNoOtherAdmission) {
  // The case study's build (its observation phase and AC-DAG) is held on a
  // worker; a model client must still connect, be admitted and finish. A
  // build on the accept thread would keep the model's HELLO from going out.
  auto model = Figure4Model();
  const EngineOptions engine = EngineOptions::Aid();
  ServiceOptions options;
  options.workers = 2;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();
  const Endpoint endpoint = (*service)->endpoint();

  Result<ServiceOutcome> case_outcome = Status::Internal("never ran");
  HeldCaseBuilds held;
  held.Spawn([&] { case_outcome = RunSession(endpoint, CaseSubmission()); });
  ASSERT_TRUE(held.AwaitHeld(1));

  auto client = ServiceClient::Connect(endpoint, /*timeout_ms=*/1000);
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "beside-a-held-build";
  submission.spec = ModelSpec(model.get());
  submission.engine = engine;
  auto accepted = (*client)->Submit(submission);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  auto outcome = (*client)->Await(/*timeout_ms=*/60000);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(held.held(), 1);  // the case study is still inside its build
  EXPECT_TRUE(
      SameDiscoveryOutcome(outcome->report, SoloRun(model.get(), engine)));

  held.ReleaseAndJoin();
  ASSERT_TRUE(case_outcome.ok()) << case_outcome.status();
  ASSERT_FALSE(case_outcome->checkpointed);
  EXPECT_TRUE(SameDiscoveryOutcome(
      case_outcome->report, CaseSoloRun(kHeldCase, CaseSubmission().engine)));
  EXPECT_EQ((*service)->sessions_accepted(), 2u);
  ExpectDrained(service->get());
}

TEST(ServiceTest, PendingBuildCountsTowardTheCap) {
  auto model = Figure4Model();
  ServiceOptions options;
  options.max_sessions = 1;
  options.workers = 2;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();
  const Endpoint endpoint = (*service)->endpoint();

  Result<ServiceOutcome> case_outcome = Status::Internal("never ran");
  HeldCaseBuilds held;
  held.Spawn([&] { case_outcome = RunSession(endpoint, CaseSubmission()); });
  ASSERT_TRUE(held.AwaitHeld(1));
  EXPECT_EQ((*service)->live_sessions(), 1);
  EXPECT_EQ((*service)->sessions_accepted(), 0u);  // not built, not admitted

  auto client = ServiceClient::Connect(endpoint, /*timeout_ms=*/1000);
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "past-a-pending-build";
  submission.spec = ModelSpec(model.get());
  submission.engine = EngineOptions::Aid();
  auto rejected = (*client)->Submit(submission);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("--max-sessions 1"),
            std::string::npos)
      << rejected.status();

  held.ReleaseAndJoin();
  ASSERT_TRUE(case_outcome.ok()) << case_outcome.status();
  EXPECT_TRUE(SameDiscoveryOutcome(
      case_outcome->report, CaseSoloRun(kHeldCase, CaseSubmission().engine)));
  EXPECT_EQ((*service)->sessions_accepted(), 1u);
  ExpectDrained(service->get());
}

TEST(ServiceTest, FailedBuildIsRejectedAndFreesItsSlot) {
  // The worker's build fails (no such case study): the client still gets
  // ERROR in answer to SUBMIT, the rejection is counted, nothing is
  // admitted, and the slot drains.
  ServiceOptions options;
  options.max_sessions = 1;
  options.telemetry = Telemetry::Create();
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto client = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "no-such-case";
  submission.spec = CaseSpec("no-such-case");
  submission.engine = EngineOptions::Aid();
  auto rejected = (*client)->Submit(submission);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound)
      << rejected.status();
  EXPECT_EQ((*service)->sessions_accepted(), 0u);
  EXPECT_EQ(options.telemetry->Snapshot().metrics.Value(
                "aid_service_rejections_total", {}),
            1u);
  ExpectDrained(service->get());
}

TEST(ServiceTest, StopDuringAHeldBuildAnswersTheClientWithAnError) {
  ServiceOptions options;
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();
  const Endpoint endpoint = (*service)->endpoint();

  Result<ServiceOutcome> case_outcome = Status::Internal("never ran");
  HeldCaseBuilds held;
  held.Spawn([&] { case_outcome = RunSession(endpoint, CaseSubmission()); });
  ASSERT_TRUE(held.AwaitHeld(1));
  // Stop() waits for the worker inside the build, so another thread has to
  // let the build go.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    held.Release();
  });
  (*service)->Stop();
  releaser.join();
  held.ReleaseAndJoin();
  ASSERT_FALSE(case_outcome.ok());
  EXPECT_EQ(case_outcome.status().code(), StatusCode::kAborted)
      << case_outcome.status();
  EXPECT_NE(case_outcome.status().message().find("shutting down"),
            std::string::npos)
      << case_outcome.status();
  EXPECT_EQ((*service)->live_sessions(), 0);
}

#else  // !AID_NET_SUPPORTED

TEST(ServiceTest, UnsupportedPlatformReportsUnimplemented) {
  EXPECT_EQ(DiscoveryService::Start().status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(ServiceClient::Connect(Endpoint{}).status().code(),
            StatusCode::kUnimplemented);
}

#endif  // AID_NET_SUPPORTED

}  // namespace
}  // namespace aid
