// RemoteTarget: a subject replica hosted by an aid_runner, behind TCP.
//
// The remote twin of proc::SubprocessTarget: both are WireReplicaTargets
// (proc/client.h), sharing the frozen SubjectSpec, the HELLO/SPEC/READY
// handshake and RUN_TRIAL conversation, the trial loop, the respawn budget
// and the positional-determinism contract -- the global trial index rides
// in every RUN_TRIAL frame, so a fleet of remote replicas produces the
// bit-identical DiscoveryReport an in-process run would. Only bringing a
// peer up and tearing it down differ:
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
//   * respawn budget spent   -> Aborted (max_respawns).
//
// Each reconnect counts as one SubstrateCounters::respawns (it puts a
// fresh session child behind the connection), so fleet turbulence lands in
// DiscoveryReport::{crashed_trials,timed_out_trials,respawns} unchanged.
//
// Clone() hands out another lazily-connecting replica over the same
// endpoints, so remote runners pool under exec::ParallelTarget exactly
// like local replicas. Use net::FleetTarget to spread a pool's clones
// across several runners.

#ifndef AID_NET_REMOTE_TARGET_H_
#define AID_NET_REMOTE_TARGET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "proc/client.h"
#include "proc/subject_spec.h"

namespace aid {

struct RemoteOptions : WireReplicaOptions {
  /// Connect/handshake attempts per (re)connect before giving up; each
  /// failed attempt fails over to the next endpoint and backs off. Each
  /// attempt has startup_timeout_ms for the TCP connect plus handshake.
  int connect_attempts = 5;

  /// Exponential backoff between failed connect attempts: attempt k >= 1
  /// sleeps min(backoff_ms << (k - 1), backoff_max_ms) first.
  int backoff_ms = 25;
  int backoff_max_ms = 1000;
};

class RemoteTarget : public WireReplicaTarget {
 public:
  /// Validates and freezes `spec`. `endpoints` is a preference order:
  /// element 0 is this replica's runner, the rest are failover candidates
  /// for reconnects. The connection is opened lazily on first use. Returns
  /// Unimplemented on platforms without sockets.
  static Result<std::unique_ptr<RemoteTarget>> Create(
      std::vector<Endpoint> endpoints, const SubjectSpec& spec,
      RemoteOptions options = {});

  ~RemoteTarget() override;

  RemoteTarget(const RemoteTarget&) = delete;
  RemoteTarget& operator=(const RemoteTarget&) = delete;

  /// The endpoint the current/next connection targets.
  const Endpoint& current_endpoint() const {
    return endpoints_[endpoint_index_ % endpoints_.size()];
  }

  const RemoteOptions& options() const override { return options_; }

 private:
  friend class FleetTarget;
  RemoteTarget(std::shared_ptr<const std::string> spec_bytes,
               std::vector<Endpoint> endpoints, RemoteOptions options)
      : WireReplicaTarget(std::move(spec_bytes), "RemoteTarget"),
        endpoints_(std::move(endpoints)),
        options_(std::move(options)) {}

  /// The remote checks (sockets, endpoints, connect attempts) plus
  /// WireReplicaTarget::FreezeSpec; shared with FleetTarget::Create.
  static Result<std::shared_ptr<const std::string>> Freeze(
      const std::vector<Endpoint>& endpoints, const SubjectSpec& spec,
      const RemoteOptions& options);

  /// Connects + handshakes, failing over across endpoints with backoff
  /// (see RemoteOptions); resumes at the current preference cursor.
  Result<std::unique_ptr<FrameChannel>> StartPeer() override;
  std::unique_ptr<WireReplicaTarget> NewReplica() const override;
  std::string endpoint_label() const override {
    return current_endpoint().ToString();
  }

  std::vector<Endpoint> endpoints_;
  size_t endpoint_index_ = 0;  ///< preference cursor (advances on failover)
  RemoteOptions options_;
};

}  // namespace aid

#endif  // AID_NET_REMOTE_TARGET_H_
