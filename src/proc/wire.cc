#include "proc/wire.h"

#include <cerrno>
#include <cstring>

#if AID_PROC_SUPPORTED
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>
#endif

#include <chrono>
#include <mutex>

namespace aid {

std::string_view ProcMsgTypeName(ProcMsgType type) {
  switch (type) {
    case ProcMsgType::kHello: return "HELLO";
    case ProcMsgType::kSpec: return "SPEC";
    case ProcMsgType::kReady: return "READY";
    case ProcMsgType::kError: return "ERROR";
    case ProcMsgType::kRunTrial: return "RUN_TRIAL";
    case ProcMsgType::kVerdict: return "VERDICT";
    case ProcMsgType::kShutdown: return "SHUTDOWN";
    case ProcMsgType::kStats: return "STATS";
    case ProcMsgType::kStatsReply: return "STATS_REPLY";
  }
  return "UNKNOWN";
}

#if AID_PROC_SUPPORTED

namespace {

/// A closed peer must surface as EPIPE (-> Status), not as a fatal SIGPIPE.
/// Installed once, process-wide, before the first pipe write -- the standard
/// contract of libraries that own pipe/socket transports.
void IgnoreSigpipeOnce() {
  static std::once_flag once;
  std::call_once(once, []() { ::signal(SIGPIPE, SIG_IGN); });
}

Status WriteAll(int fd, const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    const ssize_t rc = ::write(fd, data + written, n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Aborted("proc wire: peer closed the channel (" +
                               std::string(std::strerror(errno)) + ")");
      }
      return Status::Internal(std::string("proc wire: write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(rc);
  }
  return Status::OK();
}

using Clock = std::chrono::steady_clock;

/// WriteAll with an absolute give-up point: the fd is flipped to
/// non-blocking for the duration and each would-block wait goes through
/// poll(POLLOUT) with the remaining budget, so a peer that stops draining
/// the pipe surfaces as DeadlineExceeded instead of wedging the writer.
Status WriteAllDeadline(int fd, const char* data, size_t n,
                        Clock::time_point deadline) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("proc wire: fcntl failed: ") +
                            std::strerror(errno));
  }
  auto restore = [&]() { ::fcntl(fd, F_SETFL, flags); };
  size_t written = 0;
  while (written < n) {
    const ssize_t rc = ::write(fd, data + written, n - written);
    if (rc > 0) {
      written += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      restore();
      return Status::Aborted("proc wire: peer closed the channel (" +
                             std::string(std::strerror(errno)) + ")");
    }
    if (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      restore();
      return Status::Internal(std::string("proc wire: write failed: ") +
                              std::strerror(errno));
    }
    // Pipe full: wait for drain within the remaining budget.
    const auto remaining = deadline - Clock::now();
    const int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count());
    if (remaining_ms <= 0) {
      restore();
      return Status::DeadlineExceeded("proc wire: write deadline expired");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int prc = ::poll(&pfd, 1, remaining_ms);
    if (prc < 0 && errno != EINTR) {
      restore();
      return Status::Internal(std::string("proc wire: poll failed: ") +
                              std::strerror(errno));
    }
    if (prc == 0) {
      restore();
      return Status::DeadlineExceeded("proc wire: write deadline expired");
    }
  }
  restore();
  return Status::OK();
}

/// Reads exactly `n` bytes. `deadline` is the absolute give-up point
/// (time_point::max() = block forever). EOF mid-message is Aborted: the only
/// writer is the peer process, so a short stream means it died.
Status ReadAllDeadline(int fd, char* out, size_t n, Clock::time_point deadline) {
  size_t got = 0;
  while (got < n) {
    if (deadline != Clock::time_point::max()) {
      const auto remaining = deadline - Clock::now();
      const int remaining_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count());
      if (remaining_ms <= 0) {
        return Status::DeadlineExceeded("proc wire: read deadline expired");
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, remaining_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("proc wire: poll failed: ") +
                                std::strerror(errno));
      }
      if (rc == 0) {
        return Status::DeadlineExceeded("proc wire: read deadline expired");
      }
      // POLLHUP with buffered data still reads; plain read() below decides.
    }
    const ssize_t rc = ::read(fd, out + got, n - got);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return Status::Aborted("proc wire: peer reset the connection");
      }
      return Status::Internal(std::string("proc wire: read failed: ") +
                              std::strerror(errno));
    }
    if (rc == 0) {
      return Status::Aborted("proc wire: peer closed the channel (EOF)");
    }
    got += static_cast<size_t>(rc);
  }
  return Status::OK();
}

Result<ProcFrame> ReadFrameUntil(int fd, Clock::time_point deadline) {
  uint32_t length = 0;
  AID_RETURN_IF_ERROR(
      ReadAllDeadline(fd, reinterpret_cast<char*>(&length), sizeof(length),
                      deadline));
  if (length < 1 || length > kProcMaxFramePayload + 1) {
    return Status::InvalidArgument("proc wire: corrupt frame length " +
                                   std::to_string(length));
  }
  std::string body(length, '\0');
  AID_RETURN_IF_ERROR(ReadAllDeadline(fd, body.data(), body.size(), deadline));
  ProcFrame frame;
  frame.type = static_cast<ProcMsgType>(static_cast<uint8_t>(body[0]));
  frame.payload = body.substr(1);
  return frame;
}

}  // namespace

namespace {

/// One contiguous buffer per frame: a single write() syscall -- and, over
/// TCP_NODELAY sockets, a single segment -- instead of a header write plus
/// a payload write on the per-trial hot path.
std::string AssembleFrame(ProcMsgType type, std::string_view payload) {
  WireWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()) + 1);
  frame.U8(static_cast<uint8_t>(type));
  frame.Raw(payload);
  return frame.Release();
}

}  // namespace

Status WriteFrame(int fd, ProcMsgType type, std::string_view payload) {
  IgnoreSigpipeOnce();
  if (payload.size() > kProcMaxFramePayload) {
    return Status::InvalidArgument("proc wire: frame payload too large (" +
                                   std::to_string(payload.size()) + " bytes)");
  }
  const std::string frame = AssembleFrame(type, payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Status WriteFrameDeadline(int fd, ProcMsgType type, std::string_view payload,
                          int deadline_ms) {
  if (deadline_ms <= 0) return WriteFrame(fd, type, payload);
  IgnoreSigpipeOnce();
  if (payload.size() > kProcMaxFramePayload) {
    return Status::InvalidArgument("proc wire: frame payload too large (" +
                                   std::to_string(payload.size()) + " bytes)");
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  const std::string frame = AssembleFrame(type, payload);
  return WriteAllDeadline(fd, frame.data(), frame.size(), deadline);
}

Result<ProcFrame> ReadFrame(int fd) {
  return ReadFrameUntil(fd, Clock::time_point::max());
}

Result<ProcFrame> ReadFrameDeadline(int fd, int deadline_ms) {
  if (deadline_ms <= 0) return ReadFrame(fd);
  return ReadFrameUntil(fd,
                        Clock::now() + std::chrono::milliseconds(deadline_ms));
}

Status PipeChannel::Write(ProcMsgType type, std::string_view payload,
                          int deadline_ms) {
  if (write_fd_ < 0) {
    return Status::Internal("pipe channel: write side is closed");
  }
  return WriteFrameDeadline(write_fd_, type, payload, deadline_ms);
}

Result<ProcFrame> PipeChannel::Read(int deadline_ms) {
  if (read_fd_ < 0) {
    return Status::Internal("pipe channel: read side is closed");
  }
  return ReadFrameDeadline(read_fd_, deadline_ms);
}

void PipeChannel::Close() {
  if (owns_fds_) {
    if (read_fd_ >= 0) ::close(read_fd_);
    if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
  }
  read_fd_ = -1;
  write_fd_ = -1;
}

#else  // !AID_PROC_SUPPORTED

Status WriteFrame(int, ProcMsgType, std::string_view) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Status WriteFrameDeadline(int, ProcMsgType, std::string_view, int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Result<ProcFrame> ReadFrame(int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Result<ProcFrame> ReadFrameDeadline(int, int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Status PipeChannel::Write(ProcMsgType, std::string_view, int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Result<ProcFrame> PipeChannel::Read(int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

void PipeChannel::Close() {
  read_fd_ = -1;
  write_fd_ = -1;
}

#endif  // AID_PROC_SUPPORTED

// -------------------------------------------------------------- messages --

std::string EncodeHello(const HelloMsg& msg) {
  WireWriter writer;
  writer.U32(msg.magic);
  writer.U32(msg.version);
  writer.U64(msg.pid);
  return writer.Release();
}

Result<HelloMsg> DecodeHello(std::string_view payload) {
  WireReader reader(payload);
  HelloMsg msg;
  msg.magic = reader.U32();
  msg.version = reader.U32();
  msg.pid = reader.U64();
  AID_RETURN_IF_ERROR(reader.Finish());
  if (msg.magic != kProcMagic) {
    return Status::InvalidArgument(
        "proc wire: HELLO magic mismatch (not a subject host?)");
  }
  return msg;
}

std::string EncodeReady(const ReadyMsg& msg) {
  WireWriter writer;
  writer.U32(msg.catalog_size);
  return writer.Release();
}

Result<ReadyMsg> DecodeReady(std::string_view payload) {
  WireReader reader(payload);
  ReadyMsg msg;
  msg.catalog_size = reader.U32();
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

std::string EncodeError(const Status& status) {
  WireWriter writer;
  writer.U32(static_cast<uint32_t>(status.code()));
  writer.Str(status.message());
  return writer.Release();
}

Result<ErrorMsg> DecodeError(std::string_view payload) {
  WireReader reader(payload);
  ErrorMsg msg;
  msg.code = static_cast<StatusCode>(reader.U32());
  msg.message = reader.Str();
  AID_RETURN_IF_ERROR(reader.Finish());
  if (msg.code == StatusCode::kOk) {
    // An ERROR frame must carry an error; a peer sending OK is confused.
    msg.code = StatusCode::kInternal;
  }
  return msg;
}

std::string EncodeRunTrial(const RunTrialMsg& msg) {
  WireWriter writer;
  writer.U64(msg.trial_index);
  writer.U32(static_cast<uint32_t>(msg.intervened.size()));
  for (PredicateId id : msg.intervened) writer.I32(id);
  if (msg.has_span_context) {
    // Optional trailing SPAN_CONTEXT (telemetry). Absent = bytes identical
    // to pre-telemetry builds; see the wire.h compatibility note.
    writer.U64(msg.trace_id);
    writer.U64(msg.parent_span_id);
  }
  return writer.Release();
}

Result<RunTrialMsg> DecodeRunTrial(std::string_view payload) {
  WireReader reader(payload);
  RunTrialMsg msg;
  msg.trial_index = reader.U64();
  const uint32_t count = reader.Count(sizeof(PredicateId));
  AID_RETURN_IF_ERROR(reader.status());
  msg.intervened.reserve(count);
  for (uint32_t i = 0; i < count; ++i) msg.intervened.push_back(reader.I32());
  if (reader.ok() && reader.remaining() > 0) {
    msg.trace_id = reader.U64();
    msg.parent_span_id = reader.U64();
    msg.has_span_context = reader.ok();
  }
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

std::string EncodeVerdict(const VerdictMsg& msg) {
  WireWriter writer;
  EncodePredicateLog(msg.log, writer);
  if (msg.has_host_telemetry) {
    // Optional trailing host-telemetry block, mirrored on RUN_TRIAL's
    // SPAN_CONTEXT: absent = no trailing bytes.
    writer.U64(msg.host_recv_us);
    writer.U32(static_cast<uint32_t>(msg.host_spans.size()));
    for (const WireHostSpan& span : msg.host_spans) {
      writer.Str(span.name);
      writer.U64(span.start_us);
      writer.U64(span.end_us);
    }
  }
  return writer.Release();
}

Result<VerdictMsg> DecodeVerdict(std::string_view payload,
                                 uint32_t catalog_size) {
  WireReader reader(payload);
  VerdictMsg msg;
  AID_ASSIGN_OR_RETURN(msg.log, DecodePredicateLog(reader, catalog_size));
  if (msg.log.outcome != TrialOutcome::kCompleted) {
    // Crashes and timeouts are the engine's call, made at the transport;
    // a host claiming one is confused or hostile.
    return Status::InvalidArgument(
        "proc wire: VERDICT reports a " +
        std::string(TrialOutcomeName(msg.log.outcome)) +
        " trial; only the engine classifies crashes and timeouts");
  }
  if (reader.remaining() > 0) {
    msg.host_recv_us = reader.U64();
    const uint32_t count = reader.Count(sizeof(uint32_t) + 2 * sizeof(uint64_t));
    AID_RETURN_IF_ERROR(reader.status());
    msg.host_spans.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      WireHostSpan span;
      span.name = reader.Str();
      span.start_us = reader.U64();
      span.end_us = reader.U64();
      msg.host_spans.push_back(std::move(span));
    }
    msg.has_host_telemetry = reader.ok();
  }
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

std::string EncodeStatsReply(const StatsReplyMsg& msg) {
  WireWriter writer;
  writer.Str(msg.json);
  return writer.Release();
}

Result<StatsReplyMsg> DecodeStatsReply(std::string_view payload) {
  WireReader reader(payload);
  StatsReplyMsg msg;
  msg.json = reader.Str();
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

}  // namespace aid
