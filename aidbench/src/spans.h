// In-memory span log for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a library layer (TargetFactory::Create, BuildAcDag, the
// DiscoveryState plan/execute/absorb/finalize steps, service Submit/Await).
// Every span names its parent, so a layer's self time is its duration minus
// the part its children cover; the root span of each session is the
// benchmark itself, and its self time is the benchmark's own overhead.
// Nothing is written until the run ends (WriteChromeTrace).

#ifndef AIDBENCH_SPANS_H_
#define AIDBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace aidbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Name of the root span every session opens; its self time is the
/// benchmark's own share of the session.
inline constexpr const char* kSessionLayer = "session";

struct SpanRecord {
  const char* layer = "";  ///< static string: "session", "core.plan", ...
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint32_t lane = 0;    ///< the recording thread's lane (Chrome "tid")
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  uint64_t NextId() { return next_id_.fetch_add(1); }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  void Record(const SpanRecord& span);

  /// Self time in milliseconds per layer, summed over every span whose
  /// root is a session span.
  std::map<std::string, double> SelfMillisByLayer() const;
  /// Summed duration of the session root spans, in milliseconds.
  double SessionMillis() const;

  /// Chrome trace-event JSON ("X" events, args carry id and parent).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span. With a null log it records nothing and costs two branches,
/// so untraced code paths can share the traced call sites.
class Span {
 public:
  Span(SpanLog* log, const char* layer, uint64_t parent, uint32_t lane);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }
  void End();

 private:
  SpanLog* log_;
  SpanRecord record_;
};

}  // namespace aidbench

#endif  // AIDBENCH_SPANS_H_
