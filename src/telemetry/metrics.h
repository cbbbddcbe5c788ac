// Thread-safe metrics registry: counters, gauges, and fixed-bucket latency
// histograms, labeled by phase / endpoint / replica.
//
// The registry is the quantitative half of the telemetry subsystem (the
// Tracer in trace.h is the temporal half). Instruments are interned by
// (name, sorted labels): the first Get* call creates the time series, every
// later call returns the same pointer, and the pointer stays valid for the
// registry's lifetime -- so hot paths look an instrument up once and then
// touch nothing but a relaxed atomic. Snapshot() copies every series under
// the registry lock into plain structs the exporters (telemetry.h) render
// as JSON or Prometheus text.
//
// Writes are std::memory_order_relaxed: per-event counts need atomicity,
// not ordering, and the quiescent points where snapshots are taken (end of
// a discovery run, after a round barrier) are already synchronized by the
// dispatch joins.

#ifndef AID_TELEMETRY_METRICS_H_
#define AID_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace aid {

/// Key/value pairs identifying one time series of a metric ("endpoint" ->
/// "127.0.0.1:7601"). Order-insensitive: the registry sorts on intern.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Default latency-histogram bucket upper bounds, in microseconds. Spans
/// sub-100us in-process model trials up to second-scale remote trials; the
/// runner's shared-memory stats block (proc/subject_host.h) mirrors these
/// bounds so engine-side and runner-side histograms line up.
inline constexpr uint64_t kLatencyBucketBoundsUs[] = {
    100,   250,    500,    1000,    2500,    5000,
    10000, 25000,  50000,  100000,  250000,  1000000};
inline constexpr size_t kLatencyBucketBoundCount =
    sizeof(kLatencyBucketBoundsUs) / sizeof(kLatencyBucketBoundsUs[0]);

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (EWMAs, steal counts, flags).
class Gauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket histogram. A sample lands in the first bucket whose upper
/// bound is >= the sample (Prometheus `le` semantics); samples above every
/// bound land in the implicit +Inf overflow bucket, so there are
/// bounds().size() + 1 buckets in total.
class Histogram {
 public:
  /// `bounds` must be ascending; empty falls back to the default latency
  /// bounds above.
  explicit Histogram(std::vector<uint64_t> bounds);

  void Record(uint64_t sample);

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// i in [0, bounds().size()]; the last index is the +Inf bucket.
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<uint64_t> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  ///< bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

/// One exported time series, decoupled from the live atomics.
struct MetricPoint {
  std::string name;
  MetricLabels labels;
  MetricKind kind = MetricKind::kCounter;
  /// Counter / gauge value (0 for histograms).
  uint64_t value = 0;
  /// Histogram payload (empty for counters / gauges). `buckets` has one
  /// entry per bound plus the trailing +Inf bucket.
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  uint64_t sum = 0;
};

/// Point-in-time copy of every registered series.
struct MetricsSnapshot {
  std::vector<MetricPoint> points;

  /// The series with this exact name + label set, or nullptr.
  const MetricPoint* Find(const std::string& name,
                          const MetricLabels& labels = {}) const;
  /// Find()'s value (counter/gauge) or count (histogram); 0 when absent.
  uint64_t Value(const std::string& name,
                 const MetricLabels& labels = {}) const;
  /// Sum of Value over every label set carrying `name`.
  uint64_t Total(const std::string& name) const;
};

/// The interning registry. All methods are thread-safe; returned instrument
/// pointers are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, MetricLabels labels = {});
  Gauge* GetGauge(const std::string& name, MetricLabels labels = {});
  /// `bounds` applies only on first intern; empty = default latency bounds.
  Histogram* GetHistogram(const std::string& name, MetricLabels labels = {},
                          std::vector<uint64_t> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Number of distinct (name, labels) series -- the label-cardinality
  /// tests watch this.
  size_t series_count() const;

 private:
  struct Instrument {
    std::string name;
    MetricLabels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  static std::string SeriesKey(const std::string& name,
                               const MetricLabels& labels);
  Instrument* Intern(const std::string& name, MetricLabels labels,
                     MetricKind kind, std::vector<uint64_t> bounds);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Instrument>> series_;
};

}  // namespace aid

#endif  // AID_TELEMETRY_METRICS_H_
