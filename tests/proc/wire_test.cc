// Tests of the process-isolation wire protocol: frame transport over real
// pipes through PipeChannel (framing, buffering, EOF, deadlines, corrupt
// lengths, descriptor flags), message codecs including
// the shared PredicateLog codec a VERDICT carries (and its rejection of
// hostile bytes), the engine's refusal of older protocol versions, and the
// subject-spec codec that ships whole subjects across the process boundary.

#include "proc/wire.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
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
  /// Detaches an end for handoff to an owning PipeChannel.
  int ReleaseRead() { return std::exchange(fds_[0], -1); }
  int ReleaseWrite() { return std::exchange(fds_[1], -1); }
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

/// An owning channel over the read end of `pipe` (the write end stays
/// with the test, which writes raw bytes or closes it).
std::unique_ptr<PipeChannel> Reader(PipePair& pipe) {
  return std::make_unique<PipeChannel>(pipe.ReleaseRead(), -1,
                                       /*owns_fds=*/true);
}

/// An owning channel over the write end of `pipe`.
std::unique_ptr<PipeChannel> Writer(PipePair& pipe) {
  return std::make_unique<PipeChannel>(-1, pipe.ReleaseWrite(),
                                       /*owns_fds=*/true);
}

void WriteRaw(int fd, const std::string& bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(ProcWireTest, FramesRoundTripOverAPipe) {
  PipePair pipe;
  auto writer = Writer(pipe);
  auto reader = Reader(pipe);
  RunTrialMsg request;
  request.trial_index = 42;
  request.count = 3;
  request.intervened = {3, 1, 4, 1, 5};
  ASSERT_TRUE(
      writer->Write(ProcMsgType::kRunTrial, EncodeRunTrial(request)).ok());
  ASSERT_TRUE(writer->Write(ProcMsgType::kShutdown, {}).ok());

  auto frame = reader->Read();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, ProcMsgType::kRunTrial);
  auto decoded = DecodeRunTrial(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trial_index, 42u);
  EXPECT_EQ(decoded->count, 3u);
  EXPECT_EQ(decoded->intervened, request.intervened);

  auto shutdown = reader->Read();
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(shutdown->type, ProcMsgType::kShutdown);
  EXPECT_TRUE(shutdown->payload.empty());
}

TEST(ProcWireTest, BufferedReadsCutBackToBackAndOversizedFrames) {
  PipePair pipe;
  // Frames written in one burst arrive in one read and are cut from the
  // buffer one by one; a frame far beyond the initial buffer grows it.
  const std::string big(3 * DescriptorChannel::kInitialReadBuffer + 17, 'b');
  std::string burst;
  for (const std::string& payload : {std::string("a"), std::string(),
                                     big, std::string("z")}) {
    WireWriter frame;
    frame.U32(static_cast<uint32_t>(payload.size()) + 1);
    frame.U8(static_cast<uint8_t>(ProcMsgType::kVerdict));
    frame.Raw(payload);
    burst += frame.Release();
  }
  std::thread writer([&]() { WriteRaw(pipe.write_fd(), burst); });
  auto reader = Reader(pipe);
  for (const std::string& expected : {std::string("a"), std::string(),
                                      big, std::string("z")}) {
    auto frame = reader->Read(/*deadline_ms=*/5000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, ProcMsgType::kVerdict);
    EXPECT_EQ(frame->payload, expected);
  }
  writer.join();
  pipe.CloseWrite();
  auto eof = reader->Read(/*deadline_ms=*/5000);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kAborted);
}

TEST(ProcWireTest, EofSurfacesAsAborted) {
  PipePair pipe;
  pipe.CloseWrite();
  auto frame = Reader(pipe)->Read();
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
  WriteRaw(pipe.write_fd(), writer.buffer());
  pipe.CloseWrite();
  auto frame = Reader(pipe)->Read();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(ProcWireTest, CorruptLengthIsInvalidArgument) {
  PipePair pipe;
  WireWriter writer;
  writer.U32(0);  // a frame must carry at least its type byte
  WriteRaw(pipe.write_fd(), writer.buffer());
  auto frame = Reader(pipe)->Read();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcWireTest, DeadlineExpiresOnASilentPeer) {
  PipePair pipe;
  auto reader = Reader(pipe);
  const auto start = std::chrono::steady_clock::now();
  auto frame = reader->Read(50);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            45);
}

TEST(ProcWireTest, WriteDeadlineExpiresWhenThePeerStopsDraining) {
  PipePair pipe;
  const int write_fd = pipe.write_fd();
  auto writer = Writer(pipe);
  // The channel owns the descriptor, so it is non-blocking from
  // construction: no write ever blocks outside the deadline's poll.
  EXPECT_NE(::fcntl(write_fd, F_GETFL) & O_NONBLOCK, 0);
  // Nobody reads: a payload far beyond any pipe buffer must hit the
  // deadline instead of wedging the writer forever.
  const std::string big(4 << 20, 'x');
  const Status status = writer->Write(ProcMsgType::kSpec, big, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ProcWireTest, BorrowedDescriptorsKeepTheirFlags) {
  PipePair pipe;
  {
    PipeChannel borrowed(pipe.read_fd(), pipe.write_fd(),
                         /*owns_fds=*/false);
    ASSERT_TRUE(borrowed.Write(ProcMsgType::kShutdown, {}, 1000).ok());
    auto frame = borrowed.Read(1000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, ProcMsgType::kShutdown);
    // A deadline read on a blocking descriptor still expires.
    auto silent = borrowed.Read(20);
    ASSERT_FALSE(silent.ok());
    EXPECT_EQ(silent.status().code(), StatusCode::kDeadlineExceeded);
  }
  // Both ends are still open and still blocking.
  for (int fd : {pipe.read_fd(), pipe.write_fd()}) {
    const int flags = ::fcntl(fd, F_GETFL);
    ASSERT_GE(flags, 0);
    EXPECT_EQ(flags & O_NONBLOCK, 0);
  }
}

TEST(ProcWireTest, DeadlineReadStillDeliversPromptFrames) {
  PipePair pipe;
  auto reader = Reader(pipe);
  std::thread writer([channel = Writer(pipe)]() {
    VerdictMsg verdict;
    verdict.log.failed = true;
    EXPECT_TRUE(
        channel->Write(ProcMsgType::kVerdict, EncodeVerdict(verdict)).ok());
  });
  auto frame = reader->Read(5000);
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
  PipeChannel engine{to_engine.ReleaseRead(), to_host.ReleaseWrite(),
                     /*owns_fds=*/true};
  PipeChannel host{to_host.ReleaseRead(), to_engine.ReleaseWrite(),
                   /*owns_fds=*/true};

  void Send(ProcMsgType type, std::string_view payload) {
    ASSERT_TRUE(host.Write(type, payload).ok());
  }
};

TEST(ProcWireTest, HandshakeRefusesOlderHosts) {
  // v2 streams per-event TRACE_EVENT frames; v3 still speaks PING/PONG; v4
  // answers only one trial per RUN_TRIAL.
  for (const uint32_t version : {2u, 3u, 4u}) {
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
  bool in_step = true;
  auto answer = ReadTrialAnswer(host.engine, /*trial_index=*/0,
                                /*catalog_size=*/5,
                                /*deadline_ms=*/5000, &in_step);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument)
      << answer.status();
  EXPECT_FALSE(in_step);

  // The same log is accepted once the catalog covers it.
  host.Send(ProcMsgType::kVerdict, EncodeVerdict(verdict));
  answer = ReadTrialAnswer(host.engine, /*trial_index=*/1,
                           /*catalog_size=*/6, /*deadline_ms=*/5000,
                           &in_step);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(in_step);
  EXPECT_EQ(answer->log.observed.size(), 2u);
  EXPECT_TRUE(answer->log.complete());
}

TEST(ProcWireTest, HostErrorKeepsTheChannelInStep) {
  FakeHost host;
  host.Send(ProcMsgType::kError,
            EncodeError(Status::InvalidArgument("bad predicate id")));
  host.Send(ProcMsgType::kReady, EncodeReady(ReadyMsg{}));
  bool in_step = false;
  auto error = ReadTrialAnswer(host.engine, 0, 5, 5000, &in_step);
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(in_step);
  // Any other frame type is a protocol error that leaves it out of step.
  auto unexpected = ReadTrialAnswer(host.engine, 1, 5, 5000, &in_step);
  ASSERT_FALSE(unexpected.ok());
  EXPECT_EQ(unexpected.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(in_step);
}

// --- stale answers ---------------------------------------------------------

constexpr uint32_t kFakeCatalog = 16;

/// The log an honest fake host answers trial `index` with: unique per
/// position, so a stale answer read for a later trial shows.
PredicateLog PositionLog(uint64_t index) {
  PredicateLog log;
  log.failed = index % 2 == 1;
  const int64_t tick = static_cast<int64_t>(index);
  log.observed[static_cast<PredicateId>(index % kFakeCatalog)] = {tick, tick};
  return log;
}

enum class Misbehavior {
  kNone,
  kBadVerdict,  ///< trial 1 of a request names an id outside the catalog
  kHostError,   ///< trial 1 of a request is answered by ERROR
};

/// A scripted subject host: handshakes, then answers every trial of every
/// RUN_TRIAL in order, misbehaving on each request's second trial as told.
void ServeFakeHost(PipeChannel& host, Misbehavior misbehavior) {
  if (!host.Write(ProcMsgType::kHello, EncodeHello(HelloMsg{})).ok()) return;
  auto spec = host.Read();
  if (!spec.ok()) return;
  ReadyMsg ready;
  ready.catalog_size = kFakeCatalog;
  if (!host.Write(ProcMsgType::kReady, EncodeReady(ready)).ok()) return;
  for (;;) {
    auto frame = host.Read();
    if (!frame.ok() || frame->type != ProcMsgType::kRunTrial) return;
    auto request = DecodeRunTrial(frame->payload);
    if (!request.ok()) return;
    for (uint32_t k = 0; k < request->count; ++k) {
      if (k == 1 && misbehavior == Misbehavior::kHostError) {
        (void)host.Write(ProcMsgType::kError,
                         EncodeError(Status::NotFound("subject error")));
        break;  // an ERROR ends the batch
      }
      VerdictMsg verdict;
      verdict.log = PositionLog(request->trial_index + k);
      if (k == 1 && misbehavior == Misbehavior::kBadVerdict) {
        verdict.log.observed[kFakeCatalog + 3] = {0, 0};
      }
      if (!host.Write(ProcMsgType::kVerdict, EncodeVerdict(verdict)).ok()) {
        return;
      }
    }
  }
}

/// A WireReplicaTarget whose peers are fake hosts on threads, each over a
/// fresh pipe pair. Only the first peer misbehaves.
class FakePeerTarget : public WireReplicaTarget {
 public:
  explicit FakePeerTarget(Misbehavior first_peer)
      : WireReplicaTarget(std::make_shared<const std::string>("spec"),
                          "FakePeerTarget"),
        first_peer_(first_peer) {
    options_.trial_deadline_ms = 5000;
  }
  ~FakePeerTarget() override { DropPeer(/*graceful=*/true); }

  const WireReplicaOptions& options() const override { return options_; }
  int peers_started() const { return peers_started_; }

 protected:
  Result<std::unique_ptr<FrameChannel>> StartPeer() override {
    PipePair to_host;
    PipePair to_engine;
    auto channel = std::make_unique<PipeChannel>(
        to_engine.ReleaseRead(), to_host.ReleaseWrite(), /*owns_fds=*/true);
    auto host = std::make_shared<PipeChannel>(
        to_host.ReleaseRead(), to_engine.ReleaseWrite(), /*owns_fds=*/true);
    const Misbehavior misbehavior =
        peers_started_++ == 0 ? first_peer_ : Misbehavior::kNone;
    host_thread_ = std::thread(
        [host, misbehavior]() { ServeFakeHost(*host, misbehavior); });
    AID_RETURN_IF_ERROR(HandshakePeer(*channel, "fake host", 5000));
    return std::unique_ptr<FrameChannel>(std::move(channel));
  }
  /// The closed channel is the host thread's EOF.
  void ReapPeer(bool) override {
    if (host_thread_.joinable()) host_thread_.join();
  }
  std::unique_ptr<WireReplicaTarget> NewReplica() const override {
    return nullptr;  // never cloned
  }

 private:
  WireReplicaOptions options_;
  Misbehavior first_peer_;
  int peers_started_ = 0;
  std::thread host_thread_;
};

void ExpectPositionLogs(const TargetRunResult& result, uint64_t first) {
  for (size_t k = 0; k < result.logs.size(); ++k) {
    const PredicateLog expected = PositionLog(first + k);
    EXPECT_EQ(result.logs[k].failed, expected.failed) << k;
    EXPECT_EQ(result.logs[k].observed.size(), 1u) << k;
    EXPECT_TRUE(result.logs[k].Has(
        static_cast<PredicateId>((first + k) % kFakeCatalog)))
        << "trial " << first + k << " got a stale answer";
  }
}

TEST(ProcWireTest, RejectedVerdictMidBatchDropsThePeer) {
  FakePeerTarget target(Misbehavior::kBadVerdict);
  auto first = target.RunIntervened({}, 3);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument)
      << first.status();
  EXPECT_EQ(target.peers_started(), 1);

  // The third answer of the rejected batch is still in flight on the old
  // peer; the next call must not read it.
  auto second = target.RunIntervened({}, 3);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->logs.size(), 3u);
  ExpectPositionLogs(*second, target.trial_position() - 3);
  EXPECT_EQ(target.peers_started(), 2);
  EXPECT_EQ(target.counters().respawns, 0u);
}

TEST(ProcWireTest, HostErrorMidBatchKeepsThePeer) {
  FakePeerTarget target(Misbehavior::kHostError);
  auto first = target.RunIntervened({}, 3);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kNotFound) << first.status();

  // The ERROR ended the host's batch, so the channel is in step: the same
  // peer answers the next call. It misbehaves again on that call's second
  // trial, which shows it is the same peer.
  auto second = target.RunIntervened({}, 1);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectPositionLogs(*second, target.trial_position() - 1);
  EXPECT_EQ(target.peers_started(), 1);
}

#else  // !AID_PROC_SUPPORTED

TEST(ProcWireTest, UnsupportedPlatformReportsUnimplemented) {
  PipeChannel channel(0, 1, /*owns_fds=*/false);
  EXPECT_EQ(channel.Read().status().code(), StatusCode::kUnimplemented);
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
  request.trial_index = 9;
  request.count = 3;
  request.intervened = {1, 2, 3};
  const std::string run = EncodeRunTrial(request);
  ASSERT_TRUE(DecodeRunTrial(run).ok());
  for (size_t cut = 0; cut < run.size(); ++cut) {
    EXPECT_FALSE(DecodeRunTrial(run.substr(0, cut)).ok()) << cut;
  }
}

TEST(ProcWireTest, RunTrialCountRoundTrips) {
  for (const uint32_t count :
       {1u, 3u, static_cast<uint32_t>(kMaxTrialsPerIntervention)}) {
    for (const bool span_context : {false, true}) {
      RunTrialMsg request;
      request.trial_index = 1234567;
      request.count = count;
      request.intervened = {8, 2};
      request.has_span_context = span_context;
      request.trace_id = 1;
      request.parent_span_id = 77;
      auto decoded = DecodeRunTrial(EncodeRunTrial(request));
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded->trial_index, 1234567u);
      EXPECT_EQ(decoded->count, count);
      EXPECT_EQ(decoded->intervened, request.intervened);
      EXPECT_EQ(decoded->has_span_context, span_context);
      if (span_context) EXPECT_EQ(decoded->parent_span_id, 77u);
    }
  }
}

TEST(ProcWireTest, RunTrialRejectsZeroAndOversizedCounts) {
  for (const uint32_t count :
       {0u, static_cast<uint32_t>(kMaxTrialsPerIntervention) + 1,
        0xFFFFFFFFu}) {
    RunTrialMsg request;
    request.count = count;
    request.intervened = {1};
    auto decoded = DecodeRunTrial(EncodeRunTrial(request));
    ASSERT_FALSE(decoded.ok()) << count;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
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
