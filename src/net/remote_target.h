// RemoteTarget: a subject replica hosted by an aid_runner, behind TCP.
//
// The remote twin of proc::SubprocessTarget: the same SubjectSpec is
// serialized once, the same HELLO/SPEC/READY handshake and RUN_TRIAL
// conversation run (shared drivers in proc/client.h), and the same
// positional-determinism contract holds -- the global trial index rides in
// every RUN_TRIAL frame, so a fleet of remote replicas produces the
// bit-identical DiscoveryReport an in-process run would. Only the failure
// lifecycle differs:
//
//   * connection lost mid-trial (runner's session child crashed, runner
//     died, network broke)   -> the trial is recorded failing with
//     TrialOutcome::kCrashed and an empty observation set (the runner
//     answers each trial with one VERDICT frame, so nothing of a dying
//     trial arrives); the target reconnects with exponential backoff,
//     failing over across its endpoint list;
//   * per-trial deadline     -> the connection is dropped -- which is also
//     what kills the hung subject: the runner-side watchdog sees the
//     hangup and exits the session child -- and the trial records
//     TrialOutcome::kTimedOut; reconnect as above;
//   * reconnect budget spent -> Aborted, mirroring max_respawns.
//
// Reconnects count as SubstrateCounters::respawns (each one puts a fresh
// session child behind the connection), so fleet turbulence lands in
// DiscoveryReport::{crashed_trials,timed_out_trials,respawns} unchanged.
//
// RemoteTarget is a ReplicableTarget: Clone() hands out another
// lazily-connecting replica over the same endpoints, so remote runners
// pool under exec::ParallelTarget exactly like local replicas. Use
// net::FleetTarget to spread a pool's clones across several runners.

#ifndef AID_NET_REMOTE_TARGET_H_
#define AID_NET_REMOTE_TARGET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/replicable.h"
#include "net/channel.h"
#include "net/socket.h"
#include "proc/subject_spec.h"

namespace aid {

class Telemetry;  // telemetry/telemetry.h; nullable everywhere below

struct RemoteOptions {
  /// Wall-clock budget per trial in milliseconds; expiring drops the
  /// connection and records a timed-out trial. 0 = no deadline -- a hung
  /// remote subject then hangs the session, so set one for real fleets.
  int trial_deadline_ms = 0;

  /// Budget per connect attempt: TCP connect plus the whole handshake
  /// (VM subjects re-run their observation scan on the runner).
  int connect_timeout_ms = 60000;

  /// Connect/handshake attempts per (re)connect before giving up; each
  /// failed attempt fails over to the next endpoint and backs off.
  int connect_attempts = 5;

  /// Exponential backoff between failed connect attempts: attempt k >= 1
  /// sleeps min(backoff_ms << (k - 1), backoff_max_ms) first.
  int backoff_ms = 25;
  int backoff_max_ms = 1000;

  /// Give-up bound on reconnects across this target's lifetime; crossing
  /// it fails the run with Aborted (the crash-loop guard, mirroring
  /// SubprocessOptions::max_respawns).
  int max_reconnects = 1000;

  /// Deterministic fault injection forwarded into the subject spec: the
  /// runner's session child aborts / hangs on trials hitting the period.
  uint64_t inject_crash_period = 0;
  uint64_t inject_hang_period = 0;

  /// When nonzero, every handshake cross-checks the runner's catalog size
  /// against this value and fails with Internal on mismatch.
  uint32_t expected_catalog_size = 0;

  /// Telemetry sink shared with the session (null = off). Each trial opens
  /// an engine-side "trial" span, records wire latency into
  /// aid_trial_latency_us{transport="socket"} and
  /// aid_endpoint_trial_latency_us{endpoint}, and propagates span context
  /// over the wire so the runner's host-side spans nest under it (see
  /// docs/telemetry.md). Never changes a trial's bytes.
  std::shared_ptr<Telemetry> telemetry;
};

class RemoteTarget : public ReplicableTarget {
 public:
  /// Validates and freezes `spec`. `endpoints` is a preference order:
  /// element 0 is this replica's runner, the rest are failover candidates
  /// for reconnects. The connection is opened lazily on first use, so
  /// building (and cloning into a pool) stays cheap. Returns Unimplemented
  /// on platforms without sockets.
  static Result<std::unique_ptr<RemoteTarget>> Create(
      std::vector<Endpoint> endpoints, const SubjectSpec& spec,
      RemoteOptions options = {});

  ~RemoteTarget() override;

  RemoteTarget(const RemoteTarget&) = delete;
  RemoteTarget& operator=(const RemoteTarget&) = delete;

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override;

  /// Another lazily-connecting replica over the same endpoints and frozen
  /// spec, positioned at this target's trial cursor.
  Result<std::unique_ptr<ReplicableTarget>> Clone() const override;

  void SeekTrial(uint64_t trial_index) override { trial_cursor_ = trial_index; }
  uint64_t trial_position() const override { return trial_cursor_; }

  uint64_t executions() const override { return counters_.executions; }
  SubstrateCounters counters() const override { return counters_; }

  /// Catalog size the runner reported at handshake; 0 before first connect.
  uint32_t remote_catalog_size() const { return remote_catalog_size_; }

  /// The endpoint the current/next connection targets.
  const Endpoint& current_endpoint() const {
    return endpoints_[endpoint_index_ % endpoints_.size()];
  }

  const RemoteOptions& options() const { return options_; }

 private:
  friend class FleetTarget;
  RemoteTarget(std::shared_ptr<const std::string> spec_bytes,
               std::vector<Endpoint> endpoints, RemoteOptions options)
      : spec_bytes_(std::move(spec_bytes)),
        endpoints_(std::move(endpoints)),
        options_(std::move(options)) {}

  /// Connects + handshakes if no connection is live, failing over across
  /// endpoints with backoff (see RemoteOptions).
  Status EnsureConnected();
  /// Drops the connection (idempotent).
  void Disconnect();
  /// Disconnect + EnsureConnected with the reconnect budget applied;
  /// resumes at the current preference cursor.
  Status Reconnect();
  Result<PredicateLog> RunOneTrial(const std::vector<PredicateId>& intervened,
                                   uint64_t trial_index);

  std::shared_ptr<const std::string> spec_bytes_;
  std::vector<Endpoint> endpoints_;
  size_t endpoint_index_ = 0;  ///< preference cursor (advances on failover)
  RemoteOptions options_;

  std::unique_ptr<SocketChannel> channel_;  ///< null: not connected
  uint32_t remote_catalog_size_ = 0;

  uint64_t trial_cursor_ = 0;
  SubstrateCounters counters_;
};

}  // namespace aid

#endif  // AID_NET_REMOTE_TARGET_H_
