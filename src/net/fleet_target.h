// FleetTarget: one ReplicableTarget fronting a whole list of runners.
//
// A RemoteTarget binds (in preference order) to one runner; a FleetTarget
// holds the runner list and deals replicas out across it round-robin.
// Under exec::ParallelTarget the division of labor is exact: the pool
// clones the primary N times and never runs the primary itself, and each
// FleetTarget clone is a RemoteTarget whose endpoint preference is the
// fleet list rotated one further -- replica k lands on runner (k mod M),
// with the remaining runners as its reconnect-failover order. A fleet of
// M runners behind a pool of N workers therefore hosts ceil(N/M) replicas
// each, and losing one runner degrades (replicas fail over) instead of
// failing. Within a round, work stealing (exec/scheduler.h) routes chunks
// around a slow runner's replicas; placement itself never looks at
// latency.
//
// Every replica the fleet deals shares one spec, validated and frozen once
// by Create (RemoteTarget's checks plus WireReplicaTarget::FreezeSpec,
// proc/client.h), and one RemoteOptions; each replica spends its own
// max_respawns budget on its own reconnects.
//
// Used serially (parallelism 1, no pool), the FleetTarget lazily binds
// itself to the next endpoint in the rotation and behaves as that
// RemoteTarget. Its trial cursor commits only on success: a failed trial
// call leaves the cursor -- and therefore the positions any retry or
// sibling replica will run -- exactly where serial dispatch's first error
// would have, instead of silently swallowing the failed call's partial
// consumption.
//
// The determinism contract is untouched: which runner executes a trial can
// never influence its bytes (positional trial indices), so worker count,
// fleet size, and placement all leave the DiscoveryReport bit-identical to
// the in-process run.

#ifndef AID_NET_FLEET_TARGET_H_
#define AID_NET_FLEET_TARGET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/replicable.h"
#include "net/remote_target.h"
#include "net/socket.h"
#include "proc/subject_spec.h"

namespace aid {

class FleetTarget : public ReplicableTarget {
 public:
  /// Validates and freezes `spec` exactly as RemoteTarget::Create does
  /// (serialized once, shared by every replica the fleet deals out). No
  /// connection is opened until a replica first executes. Returns
  /// Unimplemented on platforms without sockets.
  static Result<std::unique_ptr<FleetTarget>> Create(
      std::vector<Endpoint> endpoints, const SubjectSpec& spec,
      RemoteOptions options = {});

  FleetTarget(const FleetTarget&) = delete;
  FleetTarget& operator=(const FleetTarget&) = delete;

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override;

  /// A RemoteTarget on the next endpoint in the round-robin rotation, with
  /// the rest of the fleet as its failover order, positioned at this
  /// target's cursor.
  Result<std::unique_ptr<ReplicableTarget>> Clone() const override;

  void SeekTrial(uint64_t trial_index) override;
  uint64_t trial_position() const override { return trial_cursor_; }

  uint64_t executions() const override {
    return self_ != nullptr ? self_->executions() : 0;
  }
  SubstrateCounters counters() const override {
    return self_ != nullptr ? self_->counters() : SubstrateCounters{};
  }

  const std::vector<Endpoint>& endpoints() const { return endpoints_; }
  const RemoteOptions& options() const { return options_; }

 private:
  FleetTarget(std::shared_ptr<const std::string> spec_bytes,
              std::vector<Endpoint> endpoints, RemoteOptions options)
      : spec_bytes_(std::move(spec_bytes)),
        endpoints_(std::move(endpoints)),
        options_(std::move(options)) {}

  /// The fleet list rotated so `first` leads, preserving failover order.
  std::vector<Endpoint> RotatedEndpoints(uint64_t first) const;

  /// A RemoteTarget bound (in preference order) to the next endpoint in
  /// the rotation.
  std::unique_ptr<RemoteTarget> DealReplica() const;

  std::shared_ptr<const std::string> spec_bytes_;
  std::vector<Endpoint> endpoints_;
  RemoteOptions options_;

  /// Round-robin dealing cursor: the endpoint the next replica leads with.
  mutable std::atomic<uint64_t> next_endpoint_{0};

  /// The fleet's own replica, bound lazily on first serial use.
  std::unique_ptr<RemoteTarget> self_;
  uint64_t trial_cursor_ = 0;
};

}  // namespace aid

#endif  // AID_NET_FLEET_TARGET_H_
