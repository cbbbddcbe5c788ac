// The AID subject wire protocol (version 5).
//
// A debugging engine and a subject host speak length-prefixed binary frames
// over any byte transport -- the pipe pair of a fork/exec'd child
// (proc::SubprocessTarget, the child's stdin/stdout) or a TCP connection to
// a remote runner (net::RemoteTarget / the aid_runner daemon). Every frame
// is
//
//   [u32 length][u8 type][payload (length - 1 bytes)]
//
// with all integers little-endian (trace/serialize.h WireWriter/WireReader).
// The conversation:
//
//   host   -> engine   HELLO      magic, protocol version, pid
//   engine -> host     SPEC       serialized SubjectSpec (proc/subject_spec)
//   host   -> engine   READY      catalog size (id-space sanity check)
//                   or ERROR      status code + message (bad spec, failed
//                                 observation, version mismatch)
//   engine -> host     RUN_TRIAL  first global trial index, trial count n,
//                                 intervened predicates
//   host   -> engine   VERDICT    one per trial, in trial order: the
//                                 trial's whole predicate log
//                   or ERROR      subject-level error for that trial; it
//                                 answers the trial and ends the batch
//   ...                (RUN_TRIAL repeats)
//   engine -> host     STATS      stats request (any time; runner daemons)
//   host   -> engine   STATS_REPLY  JSON stats document
//   engine -> host     SHUTDOWN   host exits 0
//
// Version 2 added a PING/PONG keepalive pair (retired in v4). Additive
// within version 2: RUN_TRIAL may carry an optional trailing SPAN_CONTEXT
// (trace id + parent span id) and VERDICT an optional trailing
// host-telemetry block (receive timestamp + host-side spans), appended only
// when the sender's telemetry is enabled; and the STATS / STATS_REPLY pair,
// which hosts that predate it answer with their normal unexpected-frame
// ERROR (stats clients surface it as "unsupported").
//
// Version 3 answers each trial with exactly one frame: the VERDICT carries
// the whole predicate log in the shared PredicateLog encoding
// (predicates/predicate.h), followed by the optional host-telemetry block.
// The per-observation TRACE_EVENT frame (type 6) is retired. A host always
// reports a completed trial; only the engine classifies crashes and
// timeouts.
//
// Version 4 retires the PING/PONG pair (types 9 and 10): no engine ever
// sent PING. A silently dropped connection surfaces as an expired trial
// deadline, exactly like a hung subject.
//
// Version 5 adds a trial count to RUN_TRIAL: the host runs trials
// trial_index .. trial_index + n - 1 back to back and answers each with its
// own frame, so a chunk of trials costs one request instead of one round
// trip per trial. The engine still times, classifies and accounts every
// trial on its own (proc/client.h).
//
// Failure semantics live at the transport layer: an EOF or write error means
// the peer died (the engine records a crashed trial and respawns or
// reconnects); a read deadline expiring means the subject hung (the engine
// SIGKILLs or drops the connection and records a timed-out trial). See
// docs/proc_protocol.md and docs/remote_protocol.md for the full
// specification.
//
// Frames travel through a FrameChannel, so protocol drivers --
// proc/client.h, proc/subject_host -- never care which transport carries
// them. Both descriptor transports (PipeChannel here, net::SocketChannel
// for TCP) share one frame-I/O core, DescriptorChannel.
//
// Platform support: the transports use POSIX descriptors. On platforms
// without them, SubprocessIsolationSupported() returns false and every
// transport entry point returns Unimplemented.

#ifndef AID_PROC_WIRE_H_
#define AID_PROC_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "predicates/predicate.h"
#include "trace/serialize.h"

#if defined(__unix__) || defined(__APPLE__)
#define AID_PROC_SUPPORTED 1
#else
#define AID_PROC_SUPPORTED 0
#endif

namespace aid {

/// True when this build can fork/exec sandboxed subject hosts.
constexpr bool SubprocessIsolationSupported() {
  return AID_PROC_SUPPORTED != 0;
}

inline constexpr uint32_t kProcMagic = 0x41494450;  // "AIDP"
/// v2 = v1 + a PING/PONG keepalive pair; v3 = the whole predicate log in
/// one VERDICT frame per trial; v4 = PING/PONG retired; v5 = RUN_TRIAL
/// carries a trial count and the host answers each trial in order.
inline constexpr uint32_t kProcProtocolVersion = 5;

/// Frames larger than this are rejected as corrupt before any allocation;
/// real frames are dominated by subject specs (programs/models, ~KBs).
inline constexpr uint32_t kProcMaxFramePayload = 64u << 20;

enum class ProcMsgType : uint8_t {
  kHello = 1,
  kSpec = 2,
  kReady = 3,
  kError = 4,
  kRunTrial = 5,
  // 6 was TRACE_EVENT, retired in v3 (the VERDICT carries the whole log).
  kVerdict = 7,
  kShutdown = 8,
  // 9 and 10 were PING and PONG, retired in v4 (no engine sent PING).
  kStats = 11,
  kStatsReply = 12,
};

std::string_view ProcMsgTypeName(ProcMsgType type);

struct ProcFrame {
  ProcMsgType type = ProcMsgType::kError;
  std::string payload;
};

// ------------------------------------------------------------- channels ----

/// A bidirectional frame transport: the seam between the protocol drivers
/// (proc/client.h, proc/subject_host) and whatever bytes actually carry the
/// frames. Every operation takes a deadline in milliseconds (<= 0 = block
/// indefinitely); all EINTR retrying happens below this interface.
///
/// Status vocabulary, shared by all implementations:
///   Aborted          -- the peer is gone (EOF, EPIPE, ECONNRESET);
///   DeadlineExceeded -- the peer is alive but silent / not draining;
///   InvalidArgument  -- corrupt frame (bad length prefix);
///   Internal         -- local I/O failure.
///
/// Channels are not thread-safe; one conversation owns one channel.
class FrameChannel {
 public:
  virtual ~FrameChannel() = default;

  virtual Status Write(ProcMsgType type, std::string_view payload,
                       int deadline_ms = 0) = 0;
  virtual Result<ProcFrame> Read(int deadline_ms = 0) = 0;

  /// Releases the transport (idempotent). Further Read/Write fail Internal.
  virtual void Close() = 0;
  virtual bool open() const = 0;

  /// Transport name for error messages ("pipe", "socket").
  virtual std::string_view transport() const = 0;
};

/// The frame-I/O core of every descriptor transport. Reads pull whatever
/// the descriptor has buffered into a per-channel buffer and cut frames
/// from it, so frames that arrive together cost one read(); a write is one
/// writev() of header and payload. poll() runs only when a read or write
/// would block, bounded by the call's deadline.
///
/// Descriptors the channel owns are switched to non-blocking at
/// construction and closed by Close(). Descriptors it does not own keep
/// their flags: on a blocking descriptor, a call with a deadline polls
/// before each read or write, which bounds the wait for the peer but not
/// a single write larger than the space the peer has left (only engines
/// pass write deadlines, and their channels own their descriptors).
///
/// The read buffer starts at kInitialReadBuffer bytes and grows to the
/// largest frame read. Bytes of a frame cut short by a deadline stay
/// buffered; the engine drops such a peer anyway.
class DescriptorChannel : public FrameChannel {
 public:
  static constexpr size_t kInitialReadBuffer = 4096;

  ~DescriptorChannel() override { Close(); }

  DescriptorChannel(const DescriptorChannel&) = delete;
  DescriptorChannel& operator=(const DescriptorChannel&) = delete;

  Status Write(ProcMsgType type, std::string_view payload,
               int deadline_ms = 0) override;
  Result<ProcFrame> Read(int deadline_ms = 0) override;
  void Close() override;
  bool open() const override { return read_fd_ >= 0 || write_fd_ >= 0; }

 protected:
  /// `read_fd` may equal `write_fd` (a full-duplex socket).
  DescriptorChannel(int read_fd, int write_fd, bool owns_fds);

 private:
  /// Reads at least one more byte into the buffer, waiting until
  /// `deadline_us` (steady-clock microseconds; 0 = no deadline).
  Status Fill(int64_t deadline_us);

  int read_fd_;
  int write_fd_;
  bool owns_fds_;
  /// Set for a non-owned descriptor found in blocking mode.
  bool read_blocks_ = false;
  bool write_blocks_ = false;
  /// Received bytes not yet cut into frames live in [begin_, end_).
  std::string buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

/// DescriptorChannel over a unidirectional descriptor pair -- the
/// subprocess transport (parent side: child stdin/stdout; host side: its
/// own 0/1).
class PipeChannel final : public DescriptorChannel {
 public:
  /// `owns_fds`: close the descriptors on Close()/destruction and make
  /// them non-blocking. The host side wraps stdin/stdout non-owning.
  PipeChannel(int read_fd, int write_fd, bool owns_fds)
      : DescriptorChannel(read_fd, write_fd, owns_fds) {}

  std::string_view transport() const override { return "pipe"; }
};

// ------------------------------------------------------------ messages ----

struct HelloMsg {
  uint32_t magic = kProcMagic;
  uint32_t version = kProcProtocolVersion;
  uint64_t pid = 0;
};

struct ReadyMsg {
  /// Size of the child's predicate catalog. The parent cross-checks it
  /// against its own catalog: a mismatch means the spec did not reconstruct
  /// the same predicate id space and every answer would be garbage.
  uint32_t catalog_size = 0;
};

struct ErrorMsg {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  Status ToStatus() const { return Status(code, message); }
};

struct RunTrialMsg {
  /// Global index of the first trial: the child SeekTrial()s to
  /// trial_index + k before executing the k-th, so all per-trial
  /// nondeterminism is positional (exec/replicable.h) and any replica
  /// produces the bytes serial dispatch would have.
  uint64_t trial_index = 0;
  /// Trials to run back to back, in [1, kMaxTrialsPerIntervention]; the
  /// host answers each in order (v5).
  uint32_t count = 1;
  std::vector<PredicateId> intervened;
  /// Optional trailing SPAN_CONTEXT (telemetry): the engine-side trace and
  /// parent span this trial executes under. Encoded only when
  /// has_span_context -- with it false the bytes are identical to
  /// pre-telemetry builds.
  bool has_span_context = false;
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

/// One host-side span carried back in a VERDICT's telemetry block. Times
/// are microseconds on the HOST's steady clock; the engine re-bases them
/// into its tracer timeline (see proc/client.cc).
struct WireHostSpan {
  std::string name;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
};

struct VerdictMsg {
  /// The trial's whole predicate log, in the shared PredicateLog encoding.
  /// Its outcome is always kCompleted: a host that answers finished the
  /// trial.
  PredicateLog log;
  /// Optional trailing host telemetry, sent only when the RUN_TRIAL carried
  /// a SPAN_CONTEXT: the host clock's timestamp at which this trial began
  /// (the RUN_TRIAL's arrival for the first trial of a request, the
  /// previous answer's departure for the rest; the engine's re-basing
  /// anchor) and the host-side spans of this trial.
  bool has_host_telemetry = false;
  uint64_t host_recv_us = 0;
  std::vector<WireHostSpan> host_spans;
};

/// STATS_REPLY: a self-describing JSON document (uptime, sessions, trial
/// counts, latency histogram). JSON rather than packed fields so
/// `aid_runner --stats` output is directly consumable by scripts and the
/// schema can grow without a protocol change. The STATS request itself has
/// an empty payload.
struct StatsReplyMsg {
  std::string json;
};

std::string EncodeHello(const HelloMsg& msg);
Result<HelloMsg> DecodeHello(std::string_view payload);
std::string EncodeReady(const ReadyMsg& msg);
Result<ReadyMsg> DecodeReady(std::string_view payload);
std::string EncodeError(const Status& status);
Result<ErrorMsg> DecodeError(std::string_view payload);
std::string EncodeRunTrial(const RunTrialMsg& msg);
/// Rejects (InvalidArgument) a count of 0 or above
/// kMaxTrialsPerIntervention: runner children read requests from the
/// network.
Result<RunTrialMsg> DecodeRunTrial(std::string_view payload);
std::string EncodeVerdict(const VerdictMsg& msg);
/// Rejects (InvalidArgument) a log whose outcome is not kCompleted or whose
/// predicate ids fall outside the `catalog_size` the handshake reported.
Result<VerdictMsg> DecodeVerdict(std::string_view payload,
                                 uint32_t catalog_size);
std::string EncodeStatsReply(const StatsReplyMsg& msg);
Result<StatsReplyMsg> DecodeStatsReply(std::string_view payload);

}  // namespace aid

#endif  // AID_PROC_WIRE_H_
