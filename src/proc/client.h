// Engine-side drivers of the subject wire protocol, transport-agnostic.
//
// proc::SubprocessTarget (pipes to a fork/exec'd child) and
// net::RemoteTarget (TCP to an aid_runner) speak the identical conversation
// -- HELLO/SPEC/READY handshake, then RUN_TRIAL / VERDICT trials, one
// answer frame carrying the whole predicate log per trial -- and differ
// only in how they create, kill, and replace the peer.
// These helpers implement the shared conversation over any FrameChannel so
// the transports implement nothing but lifecycle.
//
// Error vocabulary (the channel's, passed through): Aborted = the peer died
// mid-conversation (callers record a crashed trial and respawn/reconnect);
// DeadlineExceeded = the peer is alive but hung (callers record a timed-out
// trial); everything else is a genuine protocol or subject error.

#ifndef AID_PROC_CLIENT_H_
#define AID_PROC_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/target.h"
#include "predicates/predicate.h"
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

/// RunTrialOverChannel plus the shared failure lifecycle of the
/// process-backed transports: a peer death (Aborted) records a crashed
/// trial, a deadline expiry records a timed-out trial -- both failing,
/// both with an empty observation set (paper semantics: the failure was
/// certainly not repressed, and pruning must not reason from an
/// incomplete observation set), both counted into `*counters` -- and in
/// either case `replace_peer` is invoked to stand up a fresh subject
/// (respawn a child, reconnect a socket); its error fails the run.
/// Other errors (host-side ERROR frames, protocol corruption) propagate.
/// Every path also charges the trial's wall-clock (wire time plus any peer
/// replacement) into `counters->trial_micros`: the substrate-level timing
/// that feeds the latency-aware scheduler (exec/scheduler.h).
/// With non-null `telemetry`, each trial additionally opens an engine-side
/// "trial" span (parented under the engine's active round span), records
/// its wire latency into the aid_trial_latency_us histogram labeled by the
/// channel's transport, and propagates/imports span context per
/// RunTrialOverChannel. Null = zero overhead.
Result<PredicateLog> RunTrialWithRecovery(
    FrameChannel& channel, uint64_t trial_index,
    const std::vector<PredicateId>& intervened, uint32_t catalog_size,
    int trial_deadline_ms,
    SubstrateCounters* counters, const std::function<Status()>& replace_peer,
    Telemetry* telemetry = nullptr);

#if AID_PROC_SUPPORTED
/// waitpid with the EINTR retry every raw syscall in the transports gets;
/// shared by the subprocess target and the runner daemon. Without it, a
/// signal delivered mid-reap would leak a zombie child.
pid_t WaitpidRetry(pid_t pid, int* status, int flags);
#endif

}  // namespace aid

#endif  // AID_PROC_CLIENT_H_
