// SubprocessTarget: process-isolated subject execution.
//
// Each replica of the subject runs in a sandboxed child process -- the
// `aid_subject_host` binary launched via fork/exec -- and the engine's
// intervention requests travel over the versioned wire protocol of
// proc/wire.h. Isolation buys exactly what the paper's setting demands
// (intermittent failures on real concurrent applications, Sections 1-2):
// a subject that segfaults, aborts, or deadlocks cannot take the debugging
// engine down with it.
//
// Failure semantics (the shared lifecycle of proc/client.h's
// WireReplicaTarget, of which this is the pipe transport):
//
//   * child crash (EOF / EPIPE mid-trial)  -> the trial is recorded as a
//     failing execution with TrialOutcome::kCrashed and a fresh child is
//     spawned; the trial's observation set is empty (the host answers each
//     trial with one frame, so nothing of a dying trial arrives) and
//     complete() == false, so Definition 2 pruning skips it;
//   * per-trial deadline expiring          -> the child is SIGKILLed, the
//     trial is recorded failing with TrialOutcome::kTimedOut, respawn;
//   * crash loops                          -> after max_respawns respawns
//     the target gives up with Aborted rather than burning CPU forever.
//
// Counters (respawns / crashed / timed-out trials) surface through
// InterventionTarget::counters() and land in DiscoveryReport.
//
// Clone() hands out another lazily-spawning child over the same serialized
// spec, so replicas pool naturally under exec::ParallelTarget and one
// session can drive 1..N isolated subject processes concurrently, with
// reports bit-identical to the in-process run at any worker count.

#ifndef AID_PROC_SUBPROCESS_TARGET_H_
#define AID_PROC_SUBPROCESS_TARGET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "proc/client.h"
#include "proc/subject_spec.h"

namespace aid {

/// Where a target backend executes its subject.
enum class Isolation : uint8_t {
  kInProcess = 0,   ///< today's default: subject shares the engine process
  kSubprocess = 1,  ///< sandboxed child per replica (src/proc/)
};

struct SubprocessOptions : WireReplicaOptions {
  /// Path to the aid_subject_host binary. Empty = auto-discovery: the
  /// AID_SUBJECT_HOST environment variable, then siblings of the running
  /// executable (and its parent directory), then $PATH.
  std::string host_path;
};

class SubprocessTarget : public WireReplicaTarget {
 public:
  /// Validates and freezes `spec`. The child is spawned lazily on first
  /// use, so the ParallelTarget primary never launches a process at all.
  /// Returns Unimplemented on platforms without fork/exec.
  static Result<std::unique_ptr<SubprocessTarget>> Create(
      const SubjectSpec& spec, SubprocessOptions options = {});

  ~SubprocessTarget() override;

  SubprocessTarget(const SubprocessTarget&) = delete;
  SubprocessTarget& operator=(const SubprocessTarget&) = delete;

  const SubprocessOptions& options() const override { return options_; }

 private:
  SubprocessTarget(std::shared_ptr<const std::string> spec_bytes,
                   SubprocessOptions options)
      : WireReplicaTarget(std::move(spec_bytes), "SubprocessTarget"),
        options_(std::move(options)) {}

  /// Forks + execs the host and handshakes it under startup_timeout_ms.
  Result<std::unique_ptr<FrameChannel>> StartPeer() override;
  /// Reaps the child: after a grace period when `graceful`, else at once;
  /// SIGKILL either way once the wait is over.
  void ReapPeer(bool graceful) override;
  std::unique_ptr<WireReplicaTarget> NewReplica() const override;

  SubprocessOptions options_;
  int64_t child_pid_ = -1;  ///< -1: no child alive
};

}  // namespace aid

#endif  // AID_PROC_SUBPROCESS_TARGET_H_
