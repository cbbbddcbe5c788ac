#include "proc/subprocess_target.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "proc/client.h"
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

std::string_view IsolationName(Isolation isolation) {
  switch (isolation) {
    case Isolation::kInProcess: return "in_process";
    case Isolation::kSubprocess: return "subprocess";
  }
  return "unknown";
}

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

Result<std::unique_ptr<SubprocessTarget>> SubprocessTarget::Create(
    const SubjectSpec& spec, SubprocessOptions options) {
  if (options.trial_deadline_ms < 0) {
    return Status::InvalidArgument(
        "SubprocessTarget: trial_deadline_ms must be >= 0, got " +
        std::to_string(options.trial_deadline_ms));
  }
  if (options.max_respawns < 0) {
    return Status::InvalidArgument(
        "SubprocessTarget: max_respawns must be >= 0, got " +
        std::to_string(options.max_respawns));
  }
  SubjectSpec effective = spec;
  // The injection knobs live on the options (the session-facing surface) but
  // execute in the child, so they ride inside the frozen spec.
  if (options.inject_crash_period != 0) {
    effective.crash_period = options.inject_crash_period;
  }
  if (options.inject_hang_period != 0) {
    effective.hang_period = options.inject_hang_period;
  }
  AID_ASSIGN_OR_RETURN(std::string bytes, EncodeSubjectSpec(effective));
  return std::unique_ptr<SubprocessTarget>(new SubprocessTarget(
      std::make_shared<const std::string>(std::move(bytes)),
      std::move(options)));
}

SubprocessTarget::~SubprocessTarget() { StopChild(/*force_kill=*/false); }

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

Status SubprocessTarget::EnsureChild() {
  if (child_pid_ > 0) return Status::OK();

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
  channel_ = std::make_unique<PipeChannel>(
      /*read_fd=*/from_child[0], /*write_fd=*/to_child[1], /*owns_fds=*/true);
  child_pid_ = pid;

  // Handshake: HELLO, SPEC, READY -- all under the spawn budget. (The spec
  // can exceed the pipe buffer; the handshake deadline keeps a host that
  // stops reading from wedging the engine.)
  SubjectHandshake handshake;
  handshake.timeout_ms = options_.spawn_timeout_ms;
  handshake.expected_catalog_size = options_.expected_catalog_size;
  handshake.previous_catalog_size = child_catalog_size_;
  handshake.peer = "subject host '" + host + "'";
  Result<uint32_t> catalog = HandshakeSubject(*channel_, *spec_bytes_,
                                              handshake);
  if (!catalog.ok()) {
    StopChild(/*force_kill=*/true);
    return Status(catalog.status().code(),
                  "SubprocessTarget: " + catalog.status().message());
  }
  child_catalog_size_ = *catalog;
  return Status::OK();
}

void SubprocessTarget::StopChild(bool force_kill) {
  if (child_pid_ <= 0) {
    channel_.reset();
    return;
  }
  if (!force_kill && channel_ != nullptr) {
    (void)channel_->Write(ProcMsgType::kShutdown, {});
  }
  channel_.reset();  // closing both ends is the EOF backstop for hosts mid-read

  const pid_t pid = static_cast<pid_t>(child_pid_);
  child_pid_ = -1;
  if (force_kill) {
    ::kill(pid, SIGKILL);
    (void)WaitpidRetry(pid, nullptr, 0);
    return;
  }
  // Grace period, then SIGKILL: a wedged host must not wedge our destructor.
  constexpr int kGraceMs = 2000;
  constexpr int kPollMs = 10;
  for (int waited = 0; waited < kGraceMs; waited += kPollMs) {
    const pid_t rc = WaitpidRetry(pid, nullptr, WNOHANG);
    if (rc == pid || (rc < 0 && errno == ECHILD)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
  ::kill(pid, SIGKILL);
  (void)WaitpidRetry(pid, nullptr, 0);
}

Status SubprocessTarget::Respawn() {
  if (counters_.respawns >= static_cast<uint64_t>(options_.max_respawns)) {
    return Status::Aborted(
        "SubprocessTarget: subject crashed/hung through " +
        std::to_string(counters_.respawns) +
        " respawns (max_respawns); giving up on a crash loop");
  }
  ++counters_.respawns;
  return EnsureChild();
}

Result<PredicateLog> SubprocessTarget::RunOneTrial(
    const std::vector<PredicateId>& intervened, uint64_t trial_index) {
  AID_RETURN_IF_ERROR(EnsureChild());
  // Crash -> kCrashed, deadline -> SIGKILL + kTimedOut, fresh child either
  // way (proc/client.h has the full lifecycle contract).
  return RunTrialWithRecovery(
      *channel_, trial_index, intervened, child_catalog_size_,
      options_.trial_deadline_ms, &counters_,
      [this]() {
        StopChild(/*force_kill=*/true);
        return Respawn();
      },
      options_.telemetry.get());
}

Result<TargetRunResult> SubprocessTarget::RunIntervened(
    const std::vector<PredicateId>& intervened, int trials) {
  if (trials < 1) trials = 1;
  TargetRunResult result;
  result.logs.reserve(static_cast<size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    const uint64_t trial_index = trial_cursor_++;
    ++counters_.executions;
    AID_ASSIGN_OR_RETURN(PredicateLog log,
                         RunOneTrial(intervened, trial_index));
    result.logs.push_back(std::move(log));
  }
  return result;
}

Result<std::unique_ptr<ReplicableTarget>> SubprocessTarget::Clone() const {
  auto clone = std::unique_ptr<SubprocessTarget>(
      new SubprocessTarget(spec_bytes_, options_));
  clone->trial_cursor_ = trial_cursor_;
  return std::unique_ptr<ReplicableTarget>(std::move(clone));
}

#else  // !AID_PROC_SUPPORTED

Result<std::unique_ptr<SubprocessTarget>> SubprocessTarget::Create(
    const SubjectSpec&, SubprocessOptions) {
  return Status::Unimplemented(
      "SubprocessTarget: process isolation requires fork/exec, which this "
      "platform does not provide");
}

SubprocessTarget::~SubprocessTarget() = default;

Status SubprocessTarget::EnsureChild() {
  return Status::Unimplemented("SubprocessTarget: unsupported platform");
}

void SubprocessTarget::StopChild(bool) {}

Status SubprocessTarget::Respawn() {
  return Status::Unimplemented("SubprocessTarget: unsupported platform");
}

Result<PredicateLog> SubprocessTarget::RunOneTrial(
    const std::vector<PredicateId>&, uint64_t) {
  return Status::Unimplemented("SubprocessTarget: unsupported platform");
}

Result<TargetRunResult> SubprocessTarget::RunIntervened(
    const std::vector<PredicateId>&, int) {
  return Status::Unimplemented("SubprocessTarget: unsupported platform");
}

Result<std::unique_ptr<ReplicableTarget>> SubprocessTarget::Clone() const {
  return Status::Unimplemented("SubprocessTarget: unsupported platform");
}

#endif  // AID_PROC_SUPPORTED

}  // namespace aid
