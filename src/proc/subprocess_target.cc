#include "proc/subprocess_target.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "proc/wire.h"

#if AID_PROC_SUPPORTED
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__APPLE__)
#include <mach-o/dyld.h>
#endif

#include <chrono>
#include <mutex>
#include <thread>
#endif

namespace aid {

#if AID_PROC_SUPPORTED

namespace {

/// Absolute path of the running executable; empty when undeterminable.
std::string SelfExecutablePath() {
#if defined(__linux__)
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return {};
  exe[n] = '\0';
  return exe;
#elif defined(__APPLE__)
  char exe[4096];
  uint32_t size = sizeof(exe);
  if (_NSGetExecutablePath(exe, &size) != 0) return {};
  return exe;
#else
  return {};
#endif
}

/// Resolution order: env override, then siblings of the running executable
/// (tests and benches sit next to aid_subject_host in the build dir) and of
/// its parent directory (examples live one level down), then $PATH.
std::string ResolveHostPath(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("AID_SUBJECT_HOST");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  std::string dir = SelfExecutablePath();
  const size_t slash = dir.rfind('/');
  if (!dir.empty() && slash != std::string::npos) {
    dir.resize(slash);
    for (const std::string& candidate :
         {dir + "/aid_subject_host", dir + "/../aid_subject_host"}) {
      if (::access(candidate.c_str(), X_OK) == 0) return candidate;
    }
  }
  return "aid_subject_host";  // $PATH fallback via execvp
}

}  // namespace

namespace {

/// Creates a pipe whose BOTH ends are close-on-exec from birth. pipe2 makes
/// that atomic on Linux; elsewhere the flags are set immediately after --
/// combined with the spawn mutex below, no concurrently forked sibling can
/// inherit the ends either way.
int PipeCloexec(int fds[2]) {
#if defined(__linux__)
  return ::pipe2(fds, O_CLOEXEC);
#else
  if (::pipe(fds) != 0) return -1;
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  return 0;
#endif
}

/// Serializes pipe creation + fork across SubprocessTargets. Without it, a
/// replica forking between a sibling's pipe() and its CLOEXEC flags (non-
/// Linux path) would inherit the sibling's pipe write end, keeping that
/// sibling's EOF-based crash detection from ever firing.
std::mutex& SpawnMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

}  // namespace

Result<std::unique_ptr<FrameChannel>> SubprocessTarget::StartPeer() {
  const std::string host = ResolveHostPath(options_.host_path);
  int to_child[2];    // parent writes -> child stdin
  int from_child[2];  // child stdout -> parent reads
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(SpawnMutex());
    if (PipeCloexec(to_child) != 0) {
      return Status::Internal(std::string("SubprocessTarget: pipe failed: ") +
                              std::strerror(errno));
    }
    if (PipeCloexec(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return Status::Internal(std::string("SubprocessTarget: pipe failed: ") +
                              std::strerror(errno));
    }

    pid = ::fork();
    if (pid < 0) {
      for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
        ::close(fd);
      }
      return Status::Internal(std::string("SubprocessTarget: fork failed: ") +
                              std::strerror(errno));
    }
    if (pid == 0) {
      // Child: protocol on stdin/stdout (dup2 clears CLOEXEC on the copies),
      // original ends closed.
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
        ::close(fd);
      }
      char* const argv[] = {const_cast<char*>("aid_subject_host"), nullptr};
      ::execvp(host.c_str(), argv);
      // exec failed; 127 is the shell convention the parent reports on EOF.
      ::_exit(127);
    }
  }

  // Parent.
  ::close(to_child[0]);
  ::close(from_child[1]);
  auto channel = std::make_unique<PipeChannel>(
      /*read_fd=*/from_child[0], /*write_fd=*/to_child[1], /*owns_fds=*/true);
  child_pid_ = pid;
  Status handshake = HandshakePeer(*channel, "subject host '" + host + "'",
                                   options_.startup_timeout_ms);
  if (!handshake.ok()) {
    channel.reset();
    ReapPeer(/*graceful=*/false);
    return handshake;
  }
  return std::unique_ptr<FrameChannel>(std::move(channel));
}

void SubprocessTarget::ReapPeer(bool graceful) {
  if (child_pid_ <= 0) return;
  const pid_t pid = static_cast<pid_t>(child_pid_);
  child_pid_ = -1;
  if (graceful) {
    // Grace period, then SIGKILL: a wedged host must not wedge our
    // destructor. A host exits right after SHUTDOWN, so the first wait is
    // 100 us and each doubles, up to 10 ms.
    using std::chrono::microseconds;
    constexpr microseconds kGrace = std::chrono::seconds(2);
    constexpr microseconds kMaxStep = std::chrono::milliseconds(10);
    microseconds step(50);
    for (microseconds waited(0); waited < kGrace; waited += step) {
      const pid_t rc = WaitpidRetry(pid, nullptr, WNOHANG);
      if (rc == pid || (rc < 0 && errno == ECHILD)) return;
      step = std::min(step * 2, kMaxStep);
      std::this_thread::sleep_for(step);
    }
  }
  ::kill(pid, SIGKILL);
  (void)WaitpidRetry(pid, nullptr, 0);
}

#else  // !AID_PROC_SUPPORTED

Result<std::unique_ptr<FrameChannel>> SubprocessTarget::StartPeer() {
  return Status::Unimplemented("SubprocessTarget: unsupported platform");
}

void SubprocessTarget::ReapPeer(bool) {}

#endif  // AID_PROC_SUPPORTED

Result<std::unique_ptr<SubprocessTarget>> SubprocessTarget::Create(
    const SubjectSpec& spec, SubprocessOptions options) {
  if (!SubprocessIsolationSupported()) {
    return Status::Unimplemented(
        "SubprocessTarget: process isolation requires fork/exec, which this "
        "platform does not provide");
  }
  AID_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> bytes,
                       FreezeSpec(spec, options, "SubprocessTarget"));
  return std::unique_ptr<SubprocessTarget>(
      new SubprocessTarget(std::move(bytes), std::move(options)));
}

SubprocessTarget::~SubprocessTarget() { DropPeer(/*graceful=*/true); }

std::unique_ptr<WireReplicaTarget> SubprocessTarget::NewReplica() const {
  return std::unique_ptr<WireReplicaTarget>(
      new SubprocessTarget(spec_bytes(), options_));
}

}  // namespace aid
