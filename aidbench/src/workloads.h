// The benchmark's three closed-loop workloads, each driven through the
// library's public API:
//
//   synth_3k       SessionBuilder Build + Run over a ~2.7k-predicate
//                  synthetic model (engine planning dominates);
//   isolated_scan  one warm subprocess pool at parallelism 2, batched linear
//                  scan, Session::Run repeated (subject execution and IPC
//                  dominate);
//   service_mix    an in-process DiscoveryService fed waves of three
//                  ServiceClient connections (VM observation at admission,
//                  service turns, budgeting, checkpoint/resume).
//
// Each workload has an untraced path (what users call) and a traced path
// that performs the same discovery through the public DiscoveryState loop
// (or the same service conversation) with a span around every layer call.
// Both paths check every answer.

#ifndef AIDBENCH_WORKLOADS_H_
#define AIDBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "spans.h"

namespace aidbench {

/// One debugging session as the closed loop saw it.
struct SessionRecord {
  size_t subject = 0;    ///< index into Workload::subjects()
  double ms = 0;         ///< build/submit to report
  bool ok = false;       ///< completed without an error status
  bool correct = false;  ///< the oracle accepted the answer
  uint64_t executions = 0;
  uint64_t rounds = 0;
  std::string error;     ///< why it failed or was judged wrong
};

/// Per-layer sums over the traced sessions, keyed by counter name
/// ("core.plan_calls", "exec.speculative", ...); main.cc turns them into
/// per-session metrics.
using LayerCounters = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Subject labels; per-subject percentiles are combined across them.
  const std::vector<std::string>& subjects() const { return subjects_; }
  /// The tail percentile reported as session_ms_tail (0..100).
  virtual double tail_percentile() const = 0;
  /// Steps after which the subject rotation repeats.
  virtual uint64_t cycle_steps() const { return subjects_.size(); }

  /// Builds inputs and oracle references. Untimed.
  virtual aid::Status Prepare() = 0;
  /// Brings up the system under test and runs warm-up sessions outside
  /// the closed loop. Timed as setup_s; called again after TearDown.
  virtual aid::Status SetUp() = 0;
  /// Stops everything SetUp started and reaps its child processes.
  virtual void TearDown() = 0;

  /// Runs the next closed-loop step (one session, or one wave of
  /// concurrent sessions). With `spans`, runs the traced path and adds
  /// per-layer counts to `counters`.
  virtual std::vector<SessionRecord> Step(SpanLog* spans,
                                          LayerCounters& counters) = 0;

  /// Layer costs paid outside sessions (subject spawn), measured once in
  /// the traced run.
  virtual aid::Status MeasureSetupLayers(LayerCounters& /*counters*/) {
    return aid::Status::OK();
  }

 protected:
  std::vector<std::string> subjects_;
};

/// Null for an unknown name. `seed` picks where the subject rotation
/// starts; the subjects themselves are fixed so runs on different seeds
/// measure the same work.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace aidbench

#endif  // AIDBENCH_WORKLOADS_H_
