// Engine-side drivers of the subject wire protocol, transport-agnostic.
//
// proc::SubprocessTarget (pipes to a fork/exec'd child) and
// net::RemoteTarget (TCP to an aid_runner) speak the identical conversation
// -- HELLO/SPEC/READY handshake, then RUN_TRIAL / VERDICT trials, one
// answer frame carrying the whole predicate log per trial -- and differ
// only in how they bring a peer up and tear it down.
// The free functions below implement the conversation over any
// FrameChannel; WireReplicaTarget implements everything else both
// transports share -- options, spec freezing, the trial loop and cursor,
// the failure lifecycle and its respawn budget, the counters -- so the
// transports implement nothing but peer start-up and teardown.
//
// Error vocabulary (the channel's, passed through): Aborted = the peer died
// mid-conversation (a crashed trial, then a respawn); DeadlineExceeded =
// the peer is alive but hung (a timed-out trial, then a respawn);
// everything else is a genuine protocol or subject error.

#ifndef AID_PROC_CLIENT_H_
#define AID_PROC_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/target.h"
#include "exec/replicable.h"
#include "predicates/predicate.h"
#include "proc/subject_spec.h"
#include "proc/wire.h"

#if AID_PROC_SUPPORTED
#include <sys/types.h>
#endif

namespace aid {

class Telemetry;  // telemetry/telemetry.h; nullable everywhere below

struct SubjectHandshake {
  /// Budget across the whole handshake (HELLO + SPEC + READY). <= 0 = none.
  int timeout_ms = 60000;

  /// When nonzero, a READY whose catalog size differs fails with Internal:
  /// engine and host would disagree on predicate ids.
  uint32_t expected_catalog_size = 0;

  /// Catalog size a previous incarnation of this peer reported; nonzero
  /// makes a diverging respawn/reconnect fail with Internal.
  uint32_t previous_catalog_size = 0;

  /// Peer description for error messages ("subject host '/path'",
  /// "runner 10.0.0.7:7601").
  std::string peer = "subject host";
};

/// Performs the engine side of the handshake over `channel`: awaits HELLO
/// (checking magic and protocol version), sends `spec_bytes` as the SPEC
/// frame, awaits READY (or a host-side ERROR, which is returned as its
/// carried Status). Returns the host's catalog size.
Result<uint32_t> HandshakeSubject(FrameChannel& channel,
                                  std::string_view spec_bytes,
                                  const SubjectHandshake& options);

/// Runs one trial over `channel`: sends RUN_TRIAL and returns the predicate
/// log its VERDICT carries. `catalog_size` is what the handshake returned:
/// a VERDICT naming a predicate outside it is rejected (InvalidArgument),
/// as is one claiming a non-completed outcome. `trial_deadline_ms` budgets
/// the WHOLE trial (send included). A host-side ERROR frame is returned as
/// its carried Status, and any other frame is an Internal protocol error.
/// Aborted / DeadlineExceeded surface the channel's classification for the
/// caller to turn into crashed / timed-out trial accounting.
///
/// Telemetry (both optional): with a non-null `telemetry` and a nonzero
/// `trial_span_id`, the RUN_TRIAL carries the engine-side span context over
/// the wire and any host-side spans returned in the VERDICT are re-based
/// into the engine tracer's timeline and imported under `trial_span_id` --
/// the cross-process nesting of docs/telemetry.md.
Result<PredicateLog> RunTrialOverChannel(
    FrameChannel& channel, uint64_t trial_index,
    const std::vector<PredicateId>& intervened, uint32_t catalog_size,
    int trial_deadline_ms, Telemetry* telemetry = nullptr,
    uint64_t trial_span_id = 0);

/// The knobs every wire replica shares. SubprocessOptions and
/// RemoteOptions derive from it and add only their transport's own.
struct WireReplicaOptions {
  /// Wall-clock budget per trial in milliseconds; expiring drops the peer
  /// and records a timed-out trial. 0 = no deadline -- a genuinely hung
  /// subject then hangs the session, so set one for untrusted subjects.
  int trial_deadline_ms = 0;

  /// Budget per peer start-up attempt: the spawn or TCP connect plus the
  /// whole handshake, subject construction included (VM subjects re-run
  /// their observation scan in the peer).
  int startup_timeout_ms = 60000;

  /// Give-up bound on peer replacements (respawned children, reconnected
  /// runners) across this target's lifetime; crossing it fails the run
  /// with Aborted (crash-loop guard).
  int max_respawns = 1000;

  /// Deterministic fault injection forwarded into the subject spec (see
  /// proc/subject_spec.h): the peer aborts / hangs on trials hitting the
  /// period. Testing / chaos knobs; 0 = off.
  uint64_t inject_crash_period = 0;
  uint64_t inject_hang_period = 0;

  /// When nonzero, every handshake cross-checks the peer's catalog size
  /// against this value and fails with Internal on mismatch -- the guard
  /// that engine and peer agree on the predicate id space. Session targets
  /// set it to the engine-side catalog size.
  uint32_t expected_catalog_size = 0;

  /// Telemetry sink shared with the session (null = off). Each trial opens
  /// an engine-side "trial" span, records wire latency into
  /// aid_trial_latency_us{transport} ("pipe" or "socket"; remote replicas
  /// also into aid_endpoint_trial_latency_us{endpoint}), and propagates
  /// span context to the peer so host-side spans nest under it (see
  /// docs/telemetry.md). Never changes a trial's bytes.
  std::shared_ptr<Telemetry> telemetry;
};

/// A ReplicableTarget whose subject runs in a peer at the far end of a
/// FrameChannel. The peer starts lazily on first use, so building a target
/// -- and cloning it into a pool -- stays cheap. Every trial runs
/// RunTrialOverChannel; a peer death (Aborted) records a crashed trial, a
/// deadline expiry records a timed-out trial -- both failing, both with an
/// empty observation set (paper semantics: the failure was certainly not
/// repressed, and pruning must not reason from an incomplete observation
/// set), both counted -- and in either case the peer is dropped and a
/// fresh one started, counting one respawn; past max_respawns the run
/// fails with Aborted. Other errors (host-side ERROR frames, protocol
/// corruption) propagate. Every trial charges its wall-clock (wire time
/// plus any respawn) into counters().trial_micros: the substrate-level
/// timing the latency-aware scheduler reads (exec/scheduler.h).
///
/// Clone() hands out another lazily-starting replica over the same frozen
/// spec, positioned at this target's trial cursor. All per-trial
/// nondeterminism is positional (the global trial index rides in every
/// RUN_TRIAL frame), so reports are bit-identical to the in-process run at
/// any worker count.
class WireReplicaTarget : public ReplicableTarget {
 public:
  /// Checks the shared options and serializes `spec` once, with the
  /// options' fault injection applied: the knobs live on the options (the
  /// session-facing surface) but execute in the peer, so they ride inside
  /// the frozen spec, whose borrowed pointers are not needed afterwards.
  /// `who` prefixes error messages.
  static Result<std::shared_ptr<const std::string>> FreezeSpec(
      const SubjectSpec& spec, const WireReplicaOptions& options,
      std::string_view who);

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) final;

  Result<std::unique_ptr<ReplicableTarget>> Clone() const final;

  void SeekTrial(uint64_t trial_index) final { trial_cursor_ = trial_index; }
  uint64_t trial_position() const final { return trial_cursor_; }

  uint64_t executions() const final { return counters_.executions; }
  SubstrateCounters counters() const final { return counters_; }

  /// Catalog size the peer reported at handshake; 0 before the first
  /// start. Session targets cross-check it against the engine's catalog.
  uint32_t peer_catalog_size() const { return catalog_size_; }

  virtual const WireReplicaOptions& options() const = 0;

 protected:
  /// `spec_bytes` comes from FreezeSpec; `who` (a literal) names the
  /// transport in error messages.
  WireReplicaTarget(std::shared_ptr<const std::string> spec_bytes,
                    const char* who)
      : spec_bytes_(std::move(spec_bytes)), who_(who) {}

  /// Brings a fresh peer up and returns its channel, on which
  /// HandshakePeer has succeeded.
  virtual Result<std::unique_ptr<FrameChannel>> StartPeer() = 0;
  /// Releases what a peer holds beyond its channel, which DropPeer has
  /// already closed. `graceful`: the peer was asked to shut down and may
  /// be waited for.
  virtual void ReapPeer(bool graceful) { (void)graceful; }
  /// A fresh, not yet started replica over the same spec and options.
  virtual std::unique_ptr<WireReplicaTarget> NewReplica() const = 0;
  /// Label of the peer the next trial runs on, recorded into
  /// aid_endpoint_trial_latency_us{endpoint}; empty = not recorded.
  virtual std::string endpoint_label() const { return {}; }

  /// The handshake every StartPeer ends with: sends the frozen spec within
  /// `timeout_ms` and checks the peer's catalog against the expected size
  /// and the previous incarnation's, recording it on success. Errors carry
  /// the handshake's code, prefixed with the transport name.
  Status HandshakePeer(FrameChannel& channel, std::string peer,
                       int timeout_ms);

  /// Drops the live peer, if any: a best-effort SHUTDOWN when `graceful`,
  /// then the channel closes and ReapPeer runs. Transports call it with
  /// graceful = true from their destructors.
  void DropPeer(bool graceful);

  const std::shared_ptr<const std::string>& spec_bytes() const {
    return spec_bytes_;
  }

 private:
  /// StartPeer unless a peer is live.
  Status EnsurePeer();
  /// DropPeer + EnsurePeer with the crash-loop guard applied.
  Status Respawn();
  /// Runs one trial at `trial_index` with the failure lifecycle above.
  Result<PredicateLog> RunTrial(const std::vector<PredicateId>& intervened,
                                uint64_t trial_index);

  std::shared_ptr<const std::string> spec_bytes_;
  const char* who_;
  std::unique_ptr<FrameChannel> channel_;  ///< null: no live peer
  uint32_t catalog_size_ = 0;
  uint64_t trial_cursor_ = 0;
  SubstrateCounters counters_;
};

#if AID_PROC_SUPPORTED
/// waitpid with the EINTR retry every raw syscall in the transports gets;
/// shared by the subprocess target and the runner daemon. Without it, a
/// signal delivered mid-reap would leak a zombie child.
pid_t WaitpidRetry(pid_t pid, int* status, int flags);
#endif

}  // namespace aid

#endif  // AID_PROC_CLIENT_H_
