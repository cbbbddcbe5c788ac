#include "net/runner.h"

#include <cerrno>
#include <utility>

#if AID_NET_SUPPORTED
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <new>
#endif

#include "net/channel.h"
#include "proc/client.h"
#include "proc/subject_host.h"

namespace aid {

#if AID_NET_SUPPORTED

namespace {

/// Closes every descriptor >= lowest. Fork duplicates the whole descriptor
/// table, so a fresh session child holds dups of its SIBLINGS' connections
/// (and, for an embedded Runner, of everything its host process had open).
/// Left open, those dups break the protocol's death detection: killing a
/// session child would not deliver EOF to its engine while any sibling
/// still holds the socket.
void CloseDescriptorsFrom(int lowest) {
#if defined(__linux__) && defined(SYS_close_range)
  if (::syscall(SYS_close_range, static_cast<unsigned>(lowest), ~0U, 0) == 0) {
    return;
  }
#endif
  const long open_max = ::sysconf(_SC_OPEN_MAX);
  const int limit =
      open_max > 0 && open_max < 65536 ? static_cast<int>(open_max) : 65536;
  for (int fd = lowest; fd < limit; ++fd) ::close(fd);
}

/// Session-child watchdog: exits the child the moment the engine hangs up.
/// The protocol loop notices EOF on its own whenever it is reading -- but
/// a genuinely HUNG subject never reads again, and the engine that timed
/// its trial out can only drop the connection. Without this thread that
/// child would sleep on the runner forever (one leaked process per
/// timed-out trial). poll()ing for peer hangup consumes no protocol bytes,
/// so it runs safely beside the main loop's reads.
void StartPeerHangupWatchdog(int conn_fd) {
#if defined(POLLRDHUP)
  std::thread([conn_fd]() {
    for (;;) {
      struct pollfd pfd;
      pfd.fd = conn_fd;
      pfd.events = POLLRDHUP;
      const int rc = ::poll(&pfd, 1, -1);
      if (rc < 0 && errno == EINTR) continue;
      if (rc > 0 &&
          (pfd.revents & (POLLRDHUP | POLLERR | POLLHUP | POLLNVAL)) != 0) {
        ::_exit(0);
      }
      if (rc < 0) return;  // poll broke; leave exiting to the main loop
    }
  }).detach();
#else
  // Without POLLRDHUP (non-Linux) there is no bytes-free hangup probe;
  // hung subjects then outlive their engine until the runner restarts.
  (void)conn_fd;
#endif
}

/// Steady-clock microseconds; all processes of one machine share this
/// clock, so children can compute daemon uptime from the forked-in anchor.
uint64_t SteadyNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// How long the admission-rejection conversation may hold the accept loop.
/// A well-behaved engine sends its SPEC right behind our HELLO, so the
/// exchange is one round trip; the bound only caps a stalled peer.
constexpr int kRejectDeadlineMs = 2000;

/// Admission control at the cap: the daemon itself (no fork) speaks just
/// enough of the protocol to return a structured error -- HELLO out, the
/// client's opening frame (its SPEC) in, ERROR out. Reading the client's
/// frame before replying matters: closing with the client's SPEC still in
/// flight would raise a TCP reset that can destroy the queued ERROR before
/// the client reads it, turning a clean "runner full" status into an opaque
/// dropped connection.
void RejectSession(int conn_fd, int max_sessions) {
  SocketChannel channel(conn_fd);  // owns conn_fd; closes on return
  HelloMsg hello;
  hello.pid = static_cast<uint64_t>(::getpid());
  if (!channel.Write(ProcMsgType::kHello, EncodeHello(hello),
                     kRejectDeadlineMs)
           .ok()) {
    return;
  }
  (void)channel.Read(kRejectDeadlineMs);
  (void)channel.Write(
      ProcMsgType::kError,
      EncodeError(Status::FailedPrecondition(
          "runner at its session cap (--max-sessions " +
          std::to_string(max_sessions) +
          "): no replica slot for this connection; retry once a session "
          "ends or raise the cap")),
      kRejectDeadlineMs);
}

}  // namespace

Result<std::unique_ptr<Runner>> Runner::Start(RunnerOptions options) {
  if (options.accept_poll_ms <= 0) {
    // The tick doubles as the Stop() latency bound; 0 would block the
    // accept loop forever and deadlock Stop()/the destructor.
    options.accept_poll_ms = 200;
  }
  auto runner = std::unique_ptr<Runner>(new Runner(std::move(options)));
  // Map the shared stats block BEFORE any fork so every session child
  // inherits the same physical page and STATS connections read node-wide
  // totals. Mapping failure is not fatal -- the daemon just serves zeros.
  void* stats_mem =
      ::mmap(nullptr, sizeof(SharedHostStats), PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (stats_mem != MAP_FAILED) {
    runner->shared_stats_ = new (stats_mem) SharedHostStats();
  }
  runner->start_micros_ = SteadyNowMicros();
  AID_ASSIGN_OR_RETURN(runner->listen_fd_,
                       ListenOn(runner->options_.host, runner->options_.port,
                                runner->options_.backlog));
  AID_ASSIGN_OR_RETURN(runner->port_, BoundPort(runner->listen_fd_));
  runner->accept_thread_ = std::thread([raw = runner.get()]() {
    raw->AcceptLoop();
  });
  return runner;
}

Runner::~Runner() {
  Stop();
  if (shared_stats_ != nullptr) {
    // Children hold their own inherited mappings; this only drops ours.
    ::munmap(shared_stats_, sizeof(SharedHostStats));
    shared_stats_ = nullptr;
  }
}

void Runner::AcceptLoop() {
  while (!stopping_.load()) {
    Result<int> conn =
        AcceptConnection(listen_fd_, options_.accept_poll_ms);
    ReapSessions(/*kill_first=*/false);
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kDeadlineExceeded) continue;
      // The listen socket broke (or Stop() closed it): the daemon is done.
      return;
    }
    if (options_.max_sessions > 0) {
      int live = 0;
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        live = static_cast<int>(session_pids_.size());
      }
      if (live >= options_.max_sessions) {
        RejectSession(*conn, options_.max_sessions);
        continue;
      }
    }
    // Count and record the session before its client can observe it: the
    // count goes up before the fork, and the lock held across the fork
    // makes live_sessions() wait until the child's pid is recorded. The
    // child never touches the lock.
    sessions_started_.fetch_add(1);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const pid_t pid = ::fork();
    if (pid < 0) {
      sessions_started_.fetch_sub(1);
      ::close(*conn);
      continue;
    }
    if (pid == 0) {
      // Session child: this process IS the sandbox. Everything of the
      // daemon except the one connection is let go -- the connection is
      // parked at descriptor 3 and every other non-std descriptor closed,
      // so sibling sessions' sockets get their EOF the instant their own
      // child dies. Deliberate subject crashes abort without littering
      // core dumps.
      int conn_fd = *conn;
      if (conn_fd != 3) {
        ::dup2(conn_fd, 3);
        conn_fd = 3;
      }
      CloseDescriptorsFrom(4);
      struct rlimit no_core;
      no_core.rlim_cur = 0;
      no_core.rlim_max = 0;
      ::setrlimit(RLIMIT_CORE, &no_core);
      StartPeerHangupWatchdog(conn_fd);
      SocketChannel channel(conn_fd);
      SubjectHostOptions host;
      host.trial_delay_us = options_.trial_delay_us;
      host.shared_stats = shared_stats_;
      host.daemon_start_micros = start_micros_;
      host.daemon_sessions_started =
          static_cast<uint64_t>(sessions_started_.load());
      ::_exit(RunSubjectHost(channel, host));
    }
    ::close(*conn);
    session_pids_.push_back(pid);
  }
}

void Runner::ReapSessions(bool kill_first) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  // Only the recorded pids are reaped -- never a blanket waitpid(-1):
  // an embedding process (tests, benches) may own unrelated children,
  // e.g. SubprocessTarget subject hosts.
  std::vector<int64_t> alive;
  alive.reserve(session_pids_.size());
  for (const int64_t pid64 : session_pids_) {
    const pid_t pid = static_cast<pid_t>(pid64);
    if (kill_first) {
      ::kill(pid, SIGKILL);
      WaitpidRetry(pid, nullptr, 0);
      continue;
    }
    const pid_t rc = WaitpidRetry(pid, nullptr, WNOHANG);
    if (rc == 0) alive.push_back(pid64);  // still running
  }
  session_pids_ = std::move(alive);
}

void Runner::KillSessions() { ReapSessions(/*kill_first=*/true); }

int Runner::live_sessions() {
  ReapSessions(/*kill_first=*/false);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return static_cast<int>(session_pids_.size());
}

void Runner::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ReapSessions(/*kill_first=*/true);
}

Result<std::string> FetchRunnerStats(const std::string& endpoint,
                                     int timeout_ms) {
  AID_ASSIGN_OR_RETURN(Endpoint parsed, ParseEndpoint(endpoint));
  AID_ASSIGN_OR_RETURN(int fd, ConnectTo(parsed, timeout_ms));
  SocketChannel channel(fd);
  // The forked stats child speaks the full host protocol: it announces
  // itself first, then answers STATS while still waiting for a SPEC.
  AID_ASSIGN_OR_RETURN(ProcFrame hello, channel.Read(timeout_ms));
  if (hello.type != ProcMsgType::kHello) {
    return Status::Internal("runner stats: expected HELLO, got " +
                            std::string(ProcMsgTypeName(hello.type)));
  }
  AID_RETURN_IF_ERROR(channel.Write(ProcMsgType::kStats, "", timeout_ms));
  AID_ASSIGN_OR_RETURN(ProcFrame reply, channel.Read(timeout_ms));
  if (reply.type != ProcMsgType::kStatsReply) {
    return Status::Internal("runner stats: expected STATS_REPLY, got " +
                            std::string(ProcMsgTypeName(reply.type)));
  }
  AID_ASSIGN_OR_RETURN(StatsReplyMsg msg, DecodeStatsReply(reply.payload));
  (void)channel.Write(ProcMsgType::kShutdown, "", timeout_ms);
  return msg.json;
}

#else  // !AID_NET_SUPPORTED

Result<std::unique_ptr<Runner>> Runner::Start(RunnerOptions) {
  return Status::Unimplemented(
      "Runner: the remote fleet requires sockets and fork, which this "
      "platform does not provide");
}

Runner::~Runner() = default;
void Runner::AcceptLoop() {}
void Runner::ReapSessions(bool) {}
void Runner::KillSessions() {}
int Runner::live_sessions() { return 0; }
void Runner::Stop() {}

Result<std::string> FetchRunnerStats(const std::string&, int) {
  return Status::Unimplemented(
      "runner stats: the remote fleet requires sockets, which this platform "
      "does not provide");
}

#endif  // AID_NET_SUPPORTED

}  // namespace aid
