// LatencyBoard: shared per-endpoint latency estimates for replica placement.
//
// A heterogeneous fleet -- one runner on a loaded machine, one across a
// slow link -- makes blind round-robin placement the wrong default: every
// replica dealt to the slow runner drags its whole share of each round to
// the straggler's pace. The board closes the loop. RemoteTargets feed it
// one sample per trial (the wire-level timing proc/client charges into
// SubstrateCounters::trial_micros), it keeps an EWMA per endpoint, and
// FleetTarget asks it where the next replica should live:
//
//   * endpoints with no measurement yet -- or whose last sample is older
//     than the staleness window -- are placed first (round-robin by fewest
//     placements): a fleet must be explored before it can be ranked, with
//     no data at all this reproduces the old round-robin exactly, and the
//     staleness re-probe keeps one transient failure from exiling a
//     runner for the whole session (a penalized endpoint stops receiving
//     placements, so only re-exploration can ever correct its estimate);
//   * measured endpoints are ranked by predicted per-replica latency,
//     ewma * (placements + 1): runners are fork-per-connection, so
//     replicas sharing a runner share its machine, and the multiplier
//     keeps a uniform fleet balanced while a 10x-slower runner ends up
//     hosting ~1/10 the replicas.
//
// Placement is a scheduling decision only: trials carry absolute positions
// (ReplicableTarget::SeekTrial), so where a replica lives can never change
// a byte of the discovery report.
//
// Thread-safe: RemoteTargets on pool workers record concurrently with
// placements on the driving thread.

#ifndef AID_NET_LATENCY_H_
#define AID_NET_LATENCY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/socket.h"

namespace aid {

class Telemetry;  // telemetry/telemetry.h; nullable everywhere below

/// How long a latency estimate is trusted for placement without a fresh
/// sample. An endpoint nothing has measured for this long is re-explored
/// like an unmeasured one -- the recovery path for runners that were
/// down (and penalized) but came back.
inline constexpr std::chrono::seconds kLatencySampleStaleAfter{15};

class LatencyBoard {
 public:
  /// EWMA smoothing factor for trial samples, in (0, 1]; out-of-range
  /// values fall back to the default.
  explicit LatencyBoard(double ewma_alpha = 0.25);

  /// Mirrors the board's state into `telemetry` (nullable, non-owning;
  /// must outlive the board): endpoint EWMAs surface as
  /// aid_endpoint_ewma_micros gauges and placement counts as
  /// aid_endpoint_placements gauges, refreshed on every sample / placement
  /// change. Null detaches.
  void AttachTelemetry(Telemetry* telemetry);

  /// Folds one trial's wall-clock (microseconds) into `endpoint`'s EWMA.
  void RecordTrial(const Endpoint& endpoint, uint64_t micros);

  /// Picks the endpoint the next replica should bind to (an index into
  /// `endpoints`) and registers the placement. See file comment for the
  /// policy. `endpoints` must be non-empty.
  size_t PlaceReplica(const std::vector<Endpoint>& endpoints);

  /// Releases one placement previously registered on `endpoint` (no-op at
  /// zero). Reconnects MOVE a replica's placement (release + place), and a
  /// dying replica releases its registration -- without this the
  /// placements term of the score only ever grows, drifting away from the
  /// real replica count until it steers placement toward slow endpoints.
  void ReleaseReplica(const Endpoint& endpoint);

  /// Re-registers a replica on the SPECIFIC endpoint it actually landed on
  /// (releasing `from` first when non-null): how a replica reports that
  /// connection failover moved it somewhere the placement pick did not
  /// anticipate, keeping the board's counts equal to where replicas really
  /// live.
  void MoveReplica(const Endpoint* from, const Endpoint& to);

  /// Current estimate for one endpoint, us/trial; 0 before any sample.
  uint64_t ewma_micros(const Endpoint& endpoint) const;

  /// Replicas placed on one endpoint so far.
  uint64_t placements(const Endpoint& endpoint) const;

 private:
  struct Entry {
    double ewma = 0;          ///< us/trial; 0 = unmeasured
    uint64_t placements = 0;  ///< replicas dealt here
    /// When the last sample arrived; estimates older than
    /// kLatencySampleStaleAfter lose placement trust (re-explored).
    std::chrono::steady_clock::time_point last_sample{};
  };

  /// Pushes `key`'s current gauges into telemetry_ (caller holds mu_).
  void PublishLocked(const std::string& key, const Entry& entry);

  double ewma_alpha_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  ///< keyed by Endpoint::ToString()
  uint64_t rotation_ = 0;  ///< round-robin cursor for exploration ties
  Telemetry* telemetry_ = nullptr;  ///< nullable; see AttachTelemetry
};

}  // namespace aid

#endif  // AID_NET_LATENCY_H_
