// Tests of the process-isolation wire protocol: frame transport over real
// pipes (framing, EOF, deadlines, corrupt lengths), message codecs including
// the shared PredicateLog codec a VERDICT carries (and its rejection of
// hostile bytes), the engine's refusal of older protocol versions, and the
// subject-spec codec that ships whole subjects across the process boundary.

#include "proc/wire.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "proc/client.h"
#include "proc/subject_spec.h"
#include "runtime/program.h"
#include "synth/generator.h"

#if AID_PROC_SUPPORTED
#include <fcntl.h>
#include <unistd.h>
#endif

namespace aid {
namespace {

#if AID_PROC_SUPPORTED

class PipePair {
 public:
  PipePair() { EXPECT_EQ(::pipe(fds_), 0); }
  ~PipePair() {
    CloseRead();
    CloseWrite();
  }
  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }
  void CloseRead() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void CloseWrite() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

TEST(ProcWireTest, FramesRoundTripOverAPipe) {
  PipePair pipe;
  RunTrialMsg request;
  request.trial_index = 42;
  request.intervened = {3, 1, 4, 1, 5};
  ASSERT_TRUE(WriteFrame(pipe.write_fd(), ProcMsgType::kRunTrial,
                         EncodeRunTrial(request))
                  .ok());
  ASSERT_TRUE(WriteFrame(pipe.write_fd(), ProcMsgType::kShutdown, {}).ok());

  auto frame = ReadFrame(pipe.read_fd());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, ProcMsgType::kRunTrial);
  auto decoded = DecodeRunTrial(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trial_index, 42u);
  EXPECT_EQ(decoded->intervened, request.intervened);

  auto shutdown = ReadFrame(pipe.read_fd());
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(shutdown->type, ProcMsgType::kShutdown);
  EXPECT_TRUE(shutdown->payload.empty());
}

TEST(ProcWireTest, EofSurfacesAsAborted) {
  PipePair pipe;
  pipe.CloseWrite();
  auto frame = ReadFrame(pipe.read_fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(ProcWireTest, TruncatedFrameSurfacesAsAborted) {
  PipePair pipe;
  // A length prefix promising 100 bytes, then EOF after 3.
  WireWriter writer;
  writer.U32(100);
  writer.U8(static_cast<uint8_t>(ProcMsgType::kVerdict));
  writer.Raw("ab");
  ASSERT_EQ(::write(pipe.write_fd(), writer.buffer().data(),
                    writer.buffer().size()),
            static_cast<ssize_t>(writer.buffer().size()));
  pipe.CloseWrite();
  auto frame = ReadFrame(pipe.read_fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(ProcWireTest, CorruptLengthIsInvalidArgument) {
  PipePair pipe;
  WireWriter writer;
  writer.U32(0);  // a frame must carry at least its type byte
  ASSERT_EQ(::write(pipe.write_fd(), writer.buffer().data(),
                    writer.buffer().size()),
            static_cast<ssize_t>(writer.buffer().size()));
  auto frame = ReadFrame(pipe.read_fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcWireTest, DeadlineExpiresOnASilentPeer) {
  PipePair pipe;
  const auto start = std::chrono::steady_clock::now();
  auto frame = ReadFrameDeadline(pipe.read_fd(), 50);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            45);
}

TEST(ProcWireTest, WriteDeadlineExpiresWhenThePeerStopsDraining) {
  PipePair pipe;
  // Nobody reads: a payload far beyond any pipe buffer must hit the
  // deadline instead of wedging the writer forever.
  const std::string big(4 << 20, 'x');
  const Status status =
      WriteFrameDeadline(pipe.write_fd(), ProcMsgType::kSpec, big, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  // The fd is back in blocking mode afterwards.
  const int flags = ::fcntl(pipe.write_fd(), F_GETFL);
  EXPECT_EQ(flags & O_NONBLOCK, 0);
}

TEST(ProcWireTest, DeadlineReadStillDeliversPromptFrames) {
  PipePair pipe;
  std::thread writer([&pipe]() {
    VerdictMsg verdict;
    verdict.log.failed = true;
    EXPECT_TRUE(WriteFrame(pipe.write_fd(), ProcMsgType::kVerdict,
                           EncodeVerdict(verdict))
                    .ok());
  });
  auto frame = ReadFrameDeadline(pipe.read_fd(), 5000);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status();
  auto verdict = DecodeVerdict(frame->payload, /*catalog_size=*/1);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->log.failed);
}

/// The engine's end of a conversation with a scripted fake host: the test
/// writes the host's frames by hand and reads what the engine sent.
struct FakeHost {
  PipePair to_engine;
  PipePair to_host;
  PipeChannel engine{to_engine.read_fd(), to_host.write_fd(),
                     /*owns_fds=*/false};

  void Send(ProcMsgType type, std::string_view payload) {
    ASSERT_TRUE(WriteFrame(to_engine.write_fd(), type, payload).ok());
  }
};

TEST(ProcWireTest, HandshakeRefusesAVersion2Host) {
  // v2 streams per-event TRACE_EVENT frames; v3 still speaks PING/PONG.
  for (const uint32_t version : {2u, 3u}) {
    FakeHost host;
    HelloMsg hello;
    hello.version = version;
    host.Send(ProcMsgType::kHello, EncodeHello(hello));
    SubjectHandshake options;
    options.timeout_ms = 5000;
    auto catalog = HandshakeSubject(host.engine, "spec", options);
    ASSERT_FALSE(catalog.ok()) << "v" << version;
    EXPECT_EQ(catalog.status().code(), StatusCode::kFailedPrecondition)
        << catalog.status();
  }
}

TEST(ProcWireTest, TrialRejectsAVerdictOutsideTheHandshakeCatalog) {
  FakeHost host;
  PredicateLog log;
  log.observed[2] = {1, 1};
  log.observed[5] = {2, 3};  // the handshake reported 5 predicates: 0..4
  VerdictMsg verdict;
  verdict.log = log;
  host.Send(ProcMsgType::kVerdict, EncodeVerdict(verdict));
  auto answer = RunTrialOverChannel(host.engine, /*trial_index=*/0, {},
                                    /*catalog_size=*/5,
                                    /*trial_deadline_ms=*/5000);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument)
      << answer.status();

  // The same log is accepted once the catalog covers it.
  host.Send(ProcMsgType::kVerdict, EncodeVerdict(verdict));
  answer = RunTrialOverChannel(host.engine, /*trial_index=*/1, {},
                               /*catalog_size=*/6,
                               /*trial_deadline_ms=*/5000);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->observed.size(), 2u);
  EXPECT_TRUE(answer->complete());
}

#else  // !AID_PROC_SUPPORTED

TEST(ProcWireTest, UnsupportedPlatformReportsUnimplemented) {
  EXPECT_EQ(ReadFrame(0).status().code(), StatusCode::kUnimplemented);
}

#endif  // AID_PROC_SUPPORTED

// --- message codecs (platform-independent) --------------------------------

TEST(ProcWireTest, HelloRejectsWrongMagic) {
  HelloMsg hello;
  hello.magic = 0x12345678;
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcWireTest, ErrorMessageRoundTripsStatus) {
  const Status original = Status::NotFound("no such subject");
  auto decoded = DecodeError(EncodeError(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ToStatus(), original);
}

TEST(ProcWireTest, TruncatedMessagePayloadsFailCleanly) {
  const std::string hello = EncodeHello(HelloMsg{});
  for (size_t cut = 0; cut < hello.size(); ++cut) {
    EXPECT_FALSE(DecodeHello(hello.substr(0, cut)).ok());
  }
  RunTrialMsg request;
  request.intervened = {1, 2, 3};
  const std::string run = EncodeRunTrial(request);
  for (size_t cut = 0; cut < run.size(); ++cut) {
    EXPECT_FALSE(DecodeRunTrial(run.substr(0, cut)).ok());
  }
}

// --- predicate logs (the shared checkpoint / VERDICT codec) ---------------

PredicateLog ThreeObservationLog() {
  PredicateLog log;
  log.failed = true;
  log.observed[7] = {5, 9};
  log.observed[1] = {0, 0};
  log.observed[3] = {-2, 4};
  return log;
}

std::string EncodeLogBytes(const PredicateLog& log) {
  WireWriter writer;
  EncodePredicateLog(log, writer);
  return writer.Release();
}

Result<PredicateLog> DecodeLogBytes(std::string_view bytes,
                                    uint32_t catalog_size = 1000) {
  WireReader reader(bytes);
  AID_ASSIGN_OR_RETURN(PredicateLog log,
                       DecodePredicateLog(reader, catalog_size));
  AID_RETURN_IF_ERROR(reader.Finish());
  return log;
}

/// Byte offset of observation `i`'s id in an encoded log: failed and
/// outcome bytes, the u32 count, then 20-byte (i32, i64, i64) records.
size_t IdOffset(size_t i) { return 2 + 4 + 20 * i; }

void PutId(std::string& bytes, size_t i, int32_t id) {
  WireWriter writer;
  writer.I32(id);
  bytes.replace(IdOffset(i), 4, writer.buffer());
}

TEST(PredicateLogCodecTest, RoundTripsWithIdsSorted) {
  const PredicateLog log = ThreeObservationLog();
  const std::string bytes = EncodeLogBytes(log);
  ASSERT_EQ(bytes.size(), IdOffset(3));
  auto decoded = DecodeLogBytes(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->failed);
  EXPECT_EQ(decoded->outcome, TrialOutcome::kCompleted);
  ASSERT_EQ(decoded->observed.size(), 3u);
  EXPECT_EQ(decoded->observed.at(3).start, -2);
  EXPECT_EQ(decoded->observed.at(3).end, 4);
  // Sorted on the wire, so equal logs encode to equal bytes.
  EXPECT_EQ(EncodeLogBytes(*decoded), bytes);
  WireReader first(std::string_view(bytes).substr(IdOffset(0), 4));
  EXPECT_EQ(first.I32(), 1);
}

TEST(PredicateLogCodecTest, RejectsUnknownOutcomeBytes) {
  std::string bytes = EncodeLogBytes(ThreeObservationLog());
  for (int outcome : {3, 4, 127, 255}) {
    bytes[1] = static_cast<char>(outcome);
    auto decoded = DecodeLogBytes(bytes);
    ASSERT_FALSE(decoded.ok()) << "outcome byte " << outcome;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  for (TrialOutcome known : {TrialOutcome::kCrashed, TrialOutcome::kTimedOut}) {
    bytes[1] = static_cast<char>(known);
    auto decoded = DecodeLogBytes(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->outcome, known);
  }
}

TEST(PredicateLogCodecTest, RejectsNegativeDuplicateAndUnsortedIds) {
  const std::string good = EncodeLogBytes(ThreeObservationLog());  // 1, 3, 7
  struct Case {
    const char* what;
    size_t index;
    int32_t id;
  };
  for (const Case& c : {Case{"negative", 0, -1}, Case{"duplicate", 1, 1},
                        Case{"decreasing", 2, 2},
                        Case{"min int", 0, INT32_MIN}}) {
    std::string bytes = good;
    PutId(bytes, c.index, c.id);
    auto decoded = DecodeLogBytes(bytes);
    ASSERT_FALSE(decoded.ok()) << c.what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << c.what;
  }
}

TEST(PredicateLogCodecTest, RejectsIdsOutsideTheCatalog) {
  const std::string bytes = EncodeLogBytes(ThreeObservationLog());  // max 7
  EXPECT_TRUE(DecodeLogBytes(bytes, /*catalog_size=*/8).ok());
  auto decoded = DecodeLogBytes(bytes, /*catalog_size=*/7);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PredicateLogCodecTest, TruncationsAndHugeCountsFailCleanly) {
  const std::string bytes = EncodeLogBytes(ThreeObservationLog());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeLogBytes(bytes.substr(0, cut)).ok()) << cut;
  }
  // A count far beyond the bytes present is refused before any allocation.
  std::string huge = bytes;
  WireWriter count;
  count.U32(0xFFFFFFFFu);
  huge.replace(2, 4, count.buffer());
  EXPECT_FALSE(DecodeLogBytes(huge).ok());
}

TEST(ProcWireTest, VerdictRejectsHostClaimedCrashesAndTimeouts) {
  for (TrialOutcome outcome :
       {TrialOutcome::kCrashed, TrialOutcome::kTimedOut}) {
    VerdictMsg verdict;
    verdict.log = ThreeObservationLog();
    verdict.log.outcome = outcome;
    auto decoded = DecodeVerdict(EncodeVerdict(verdict), /*catalog_size=*/8);
    ASSERT_FALSE(decoded.ok()) << TrialOutcomeName(outcome);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProcWireTest, VerdictRejectsIdsAtOrBeyondTheCatalogSize) {
  VerdictMsg verdict;
  verdict.log = ThreeObservationLog();  // ids 1, 3, 7
  const std::string payload = EncodeVerdict(verdict);
  EXPECT_TRUE(DecodeVerdict(payload, /*catalog_size=*/8).ok());
  for (uint32_t catalog : {0u, 1u, 7u}) {
    auto decoded = DecodeVerdict(payload, catalog);
    ASSERT_FALSE(decoded.ok()) << catalog;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProcWireTest, TruncatedVerdictsFailCleanly) {
  VerdictMsg verdict;
  verdict.log = ThreeObservationLog();
  verdict.has_host_telemetry = true;
  verdict.host_recv_us = 9;
  verdict.host_spans.push_back(WireHostSpan{"host.trial", 1, 2});
  const std::string payload = EncodeVerdict(verdict);
  const size_t log_bytes = IdOffset(3);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    if (cut == log_bytes) continue;  // the log alone is a valid VERDICT
    EXPECT_FALSE(DecodeVerdict(payload.substr(0, cut), 8).ok()) << cut;
  }
}

// --- subject specs --------------------------------------------------------

TEST(SubjectSpecTest, ModelSpecRoundTripsIdentically) {
  SyntheticAppOptions options;
  options.max_threads = 10;
  options.seed = 11;
  auto model = GenerateSyntheticApp(options);
  ASSERT_TRUE(model.ok());

  SubjectSpec spec;
  spec.kind = SubjectKind::kFlakyModel;
  spec.model = model->get();
  spec.manifest_probability = 0.625;
  spec.flaky_seed = 99;
  spec.crash_period = 17;
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto decoded = DecodeSubjectSpec(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->kind, SubjectKind::kFlakyModel);
  EXPECT_EQ(decoded->manifest_probability, 0.625);
  EXPECT_EQ(decoded->flaky_seed, 99u);
  EXPECT_EQ(decoded->crash_period, 17u);
  ASSERT_NE(decoded->model, nullptr);

  const GroundTruthModel& original = **model;
  const GroundTruthModel& copy = *decoded->model;
  // Identical id space and structure...
  EXPECT_EQ(copy.catalog().size(), original.catalog().size());
  EXPECT_EQ(copy.failure(), original.failure());
  EXPECT_EQ(copy.predicates(), original.predicates());
  EXPECT_EQ(copy.causal_chain(), original.causal_chain());
  EXPECT_EQ(copy.temporal_edges(), original.temporal_edges());
  // ...and identical behavior: execution under interventions matches.
  const std::vector<std::vector<PredicateId>> interventions = {
      {}, {original.root_cause()}, {original.predicates().front()}};
  for (const auto& intervened : interventions) {
    const PredicateLog a = original.Execute(intervened);
    const PredicateLog b = copy.Execute(intervened);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.observed.size(), b.observed.size());
    for (const auto& [id, obs] : a.observed) {
      ASSERT_TRUE(b.Has(id));
      EXPECT_EQ(b.observed.at(id).start, obs.start);
      EXPECT_EQ(b.observed.at(id).end, obs.end);
    }
  }
}

TEST(SubjectSpecTest, CaseSpecRoundTrips) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kCase;
  spec.case_key = "kafka";
  spec.hang_period = 5;
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeSubjectSpec(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->kind, SubjectKind::kCase);
  EXPECT_EQ(decoded->case_key, "kafka");
  EXPECT_EQ(decoded->hang_period, 5u);
}

TEST(SubjectSpecTest, SelfInconsistentSpecsAreRejected) {
  SubjectSpec no_model;
  no_model.kind = SubjectKind::kModel;
  EXPECT_FALSE(EncodeSubjectSpec(no_model).ok());

  SubjectSpec no_key;
  no_key.kind = SubjectKind::kCase;
  EXPECT_FALSE(EncodeSubjectSpec(no_key).ok());

  SubjectSpec no_program;
  no_program.kind = SubjectKind::kVmProgram;
  EXPECT_FALSE(EncodeSubjectSpec(no_program).ok());
}

TEST(SubjectSpecTest, TruncatedSpecFailsCleanly) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kCase;
  spec.case_key = "npgsql";
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok());
  for (size_t cut = 0; cut < encoded->size(); ++cut) {
    EXPECT_FALSE(DecodeSubjectSpec(encoded->substr(0, cut)).ok());
  }
}

// --- program serialization ------------------------------------------------
//
// A program travels only inside a vm-program spec, so these cases encode
// and decode it through one.

/// The SPEC payload carrying `program`.
std::string ProgramSpecBytes(const Program& program) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kVmProgram;
  spec.program = &program;
  auto encoded = EncodeSubjectSpec(spec);
  EXPECT_TRUE(encoded.ok()) << encoded.status();
  return encoded.ok() ? *encoded : std::string();
}

TEST(ProgramIoTest, ProgramRoundTripsAndRunsIdentically) {
  ProgramBuilder builder;
  builder.Global("counter", 3);
  builder.Array("slots", 4);
  builder.Mutex("lock");
  auto worker = builder.Method("Worker");
  worker.Lock("lock")
      .LoadGlobal(0, "counter")
      .AddImm(0, 0, 1)
      .StoreGlobal("counter", 0)
      .Unlock("lock")
      .Return(0);
  auto main_method = builder.Method("Main");
  main_method.Spawn(1, "Worker")
      .Call(0, "Worker")
      .Join(1)
      .LoadGlobal(0, "counter")
      .ThrowIfZero(0, "Boom")
      .Return(0);
  auto program = builder.Build("Main");
  ASSERT_TRUE(program.ok()) << program.status();

  const std::string bytes = ProgramSpecBytes(*program);
  auto spec = DecodeSubjectSpec(bytes);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->kind, SubjectKind::kVmProgram);
  const std::unique_ptr<Program>& decoded = spec->program;
  ASSERT_NE(decoded, nullptr);

  EXPECT_EQ(decoded->entry(), program->entry());
  EXPECT_EQ(decoded->methods().size(), program->methods().size());
  EXPECT_EQ(decoded->method_names().size(), program->method_names().size());
  EXPECT_EQ(decoded->object_names().size(), program->object_names().size());
  EXPECT_EQ(decoded->mutexes(), program->mutexes());
  EXPECT_EQ(decoded->globals(), program->globals());
  EXPECT_EQ(decoded->arrays(), program->arrays());
  // Bit-stable re-encode.
  EXPECT_EQ(ProgramSpecBytes(*decoded), bytes);
}

TEST(ProgramIoTest, TruncatedProgramFailsCleanly) {
  ProgramBuilder builder;
  builder.Global("x", 0);
  auto main_method = builder.Method("Main");
  main_method.LoadGlobal(0, "x").Return(0);
  auto program = builder.Build("Main");
  ASSERT_TRUE(program.ok());
  const std::string bytes = ProgramSpecBytes(*program);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        DecodeSubjectSpec(std::string_view(bytes).substr(0, cut)).ok());
  }
}

}  // namespace
}  // namespace aid
