#include "proc/wire.h"

#include <cerrno>
#include <cstring>

#if AID_PROC_SUPPORTED
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/uio.h>
#include <unistd.h>
#endif

#include <chrono>
#include <mutex>

#include "core/engine.h"

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
/// Installed once, process-wide, before the first channel exists -- the
/// standard contract of libraries that own pipe/socket transports.
void IgnoreSigpipeOnce() {
  static std::once_flag once;
  std::call_once(once, []() { ::signal(SIGPIPE, SIG_IGN); });
}

constexpr size_t kFrameHeader = 5;  // u32 length + u8 type

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Absolute give-up point for a call's `deadline_ms`; 0 = none.
int64_t DeadlineMicros(int deadline_ms) {
  return deadline_ms > 0 ? NowMicros() + int64_t{deadline_ms} * 1000 : 0;
}

/// Waits until `fd` is ready for `events` or `deadline_us` passes
/// (0 = wait indefinitely). Readiness includes POLLHUP/POLLERR: the next
/// read or write reports what happened.
Status AwaitReady(int fd, short events, int64_t deadline_us,
                  const char* what) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline_us != 0) {
      const int64_t remaining_ms = (deadline_us - NowMicros()) / 1000;
      if (remaining_ms <= 0) {
        return Status::DeadlineExceeded(std::string("proc wire: ") + what +
                                        " deadline expired");
      }
      timeout_ms = static_cast<int>(remaining_ms);
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string("proc wire: ") + what +
                                      " deadline expired");
    }
    if (errno != EINTR) {
      return Status::Internal(std::string("proc wire: poll failed: ") +
                              std::strerror(errno));
    }
  }
}

/// Makes an owned descriptor non-blocking; for a borrowed one, reports
/// whether it blocks.
bool PrepareDescriptor(int fd, bool owned) {
  if (fd < 0) return false;
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0) return false;
  if (!owned) return (flags & O_NONBLOCK) == 0;
  if ((flags & O_NONBLOCK) == 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return false;
}

}  // namespace

DescriptorChannel::DescriptorChannel(int read_fd, int write_fd,
                                     bool owns_fds)
    : read_fd_(read_fd), write_fd_(write_fd), owns_fds_(owns_fds) {
  IgnoreSigpipeOnce();
  read_blocks_ = PrepareDescriptor(read_fd_, owns_fds_);
  write_blocks_ = write_fd_ == read_fd_
                      ? read_blocks_
                      : PrepareDescriptor(write_fd_, owns_fds_);
}

Status DescriptorChannel::Write(ProcMsgType type, std::string_view payload,
                                int deadline_ms) {
  if (write_fd_ < 0) {
    return Status::Internal(std::string(transport()) +
                            " channel: write side is closed");
  }
  if (payload.size() > kProcMaxFramePayload) {
    return Status::InvalidArgument("proc wire: frame payload too large (" +
                                   std::to_string(payload.size()) + " bytes)");
  }
  const int64_t deadline_us = DeadlineMicros(deadline_ms);
  const uint32_t length = static_cast<uint32_t>(payload.size()) + 1;
  const char header[kFrameHeader] = {
      static_cast<char>(length & 0xff), static_cast<char>((length >> 8) & 0xff),
      static_cast<char>((length >> 16) & 0xff),
      static_cast<char>((length >> 24) & 0xff), static_cast<char>(type)};
  // Header and payload leave in one writev(): one syscall and, over
  // TCP_NODELAY sockets, one segment per frame.
  const size_t total = kFrameHeader + payload.size();
  size_t written = 0;
  while (written < total) {
    struct iovec parts[2];
    int count = 0;
    if (written < kFrameHeader) {
      parts[count].iov_base = const_cast<char*>(header + written);
      parts[count++].iov_len = kFrameHeader - written;
    }
    const size_t offset = written > kFrameHeader ? written - kFrameHeader : 0;
    if (offset < payload.size()) {
      parts[count].iov_base = const_cast<char*>(payload.data() + offset);
      parts[count++].iov_len = payload.size() - offset;
    }
    if (write_blocks_ && deadline_us != 0) {
      AID_RETURN_IF_ERROR(AwaitReady(write_fd_, POLLOUT, deadline_us, "write"));
    }
    const ssize_t rc = ::writev(write_fd_, parts, count);
    if (rc >= 0) {
      written += static_cast<size_t>(rc);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      AID_RETURN_IF_ERROR(AwaitReady(write_fd_, POLLOUT, deadline_us, "write"));
      continue;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return Status::Aborted("proc wire: peer closed the channel (" +
                             std::string(std::strerror(errno)) + ")");
    }
    return Status::Internal(std::string("proc wire: write failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status DescriptorChannel::Fill(int64_t deadline_us) {
  for (;;) {
    if (read_blocks_ && deadline_us != 0) {
      AID_RETURN_IF_ERROR(AwaitReady(read_fd_, POLLIN, deadline_us, "read"));
    }
    const ssize_t rc =
        ::read(read_fd_, buffer_.data() + end_, buffer_.size() - end_);
    if (rc > 0) {
      end_ += static_cast<size_t>(rc);
      return Status::OK();
    }
    // EOF, even mid-frame: the only writer is the peer, so a short stream
    // means it died.
    if (rc == 0) {
      return Status::Aborted("proc wire: peer closed the channel (EOF)");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      AID_RETURN_IF_ERROR(AwaitReady(read_fd_, POLLIN, deadline_us, "read"));
      continue;
    }
    if (errno == ECONNRESET) {
      return Status::Aborted("proc wire: peer reset the connection");
    }
    return Status::Internal(std::string("proc wire: read failed: ") +
                            std::strerror(errno));
  }
}

Result<ProcFrame> DescriptorChannel::Read(int deadline_ms) {
  if (read_fd_ < 0) {
    return Status::Internal(std::string(transport()) +
                            " channel: read side is closed");
  }
  const int64_t deadline_us = DeadlineMicros(deadline_ms);
  if (buffer_.empty()) buffer_.resize(kInitialReadBuffer);
  for (;;) {
    size_t need = kFrameHeader;
    const size_t have = end_ - begin_;
    if (have >= 4) {
      const auto* p = reinterpret_cast<const uint8_t*>(buffer_.data() + begin_);
      const uint32_t length = uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                              uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
      if (length < 1 || length > kProcMaxFramePayload + 1) {
        return Status::InvalidArgument("proc wire: corrupt frame length " +
                                       std::to_string(length));
      }
      need = 4 + size_t{length};
      if (have >= need) {
        ProcFrame frame;
        frame.type = static_cast<ProcMsgType>(p[4]);
        frame.payload.assign(buffer_.data() + begin_ + kFrameHeader,
                             need - kFrameHeader);
        begin_ += need;
        if (begin_ == end_) begin_ = end_ = 0;
        return frame;
      }
    }
    if (buffer_.size() - begin_ < need) {
      // Make room for the whole frame: slide the partial frame to the
      // front, then grow to fit it.
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      if (buffer_.size() < need) buffer_.resize(need);
    }
    AID_RETURN_IF_ERROR(Fill(deadline_us));
  }
}

void DescriptorChannel::Close() {
  if (owns_fds_) {
    if (read_fd_ >= 0) ::close(read_fd_);
    if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
  }
  read_fd_ = -1;
  write_fd_ = -1;
}

#else  // !AID_PROC_SUPPORTED

DescriptorChannel::DescriptorChannel(int read_fd, int write_fd,
                                     bool owns_fds)
    : read_fd_(read_fd), write_fd_(write_fd), owns_fds_(owns_fds) {}

Status DescriptorChannel::Write(ProcMsgType, std::string_view, int) {
  return Status::Unimplemented(
      "proc wire: descriptors are unavailable on this platform");
}

Result<ProcFrame> DescriptorChannel::Read(int) {
  return Status::Unimplemented(
      "proc wire: descriptors are unavailable on this platform");
}

void DescriptorChannel::Close() {
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
  writer.U32(msg.count);
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
  msg.count = reader.U32();
  const uint32_t count = reader.Count(sizeof(PredicateId));
  AID_RETURN_IF_ERROR(reader.status());
  if (msg.count == 0 ||
      msg.count > static_cast<uint32_t>(kMaxTrialsPerIntervention)) {
    return Status::InvalidArgument(
        "proc wire: RUN_TRIAL asks for " + std::to_string(msg.count) +
        " trials; the count must be in [1, " +
        std::to_string(kMaxTrialsPerIntervention) + "]");
  }
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
