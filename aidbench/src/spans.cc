#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "telemetry/json.h"

namespace aidbench {

void SpanLog::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, double> SpanLog::SelfMillisByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans_) {
    by_id[span.id] = &span;
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  auto under_session = [&](const SpanRecord* span) {
    while (span->parent != 0) {
      auto it = by_id.find(span->parent);
      if (it == by_id.end()) return false;
      span = it->second;
    }
    return std::string(span->layer) == kSessionLayer;
  };

  std::map<std::string, double> self_ms;
  for (const SpanRecord& span : spans_) {
    if (!under_session(&span)) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const SpanRecord* child : children[span.id]) {
      covered.emplace_back(std::max(child->start_ns, span.start_ns),
                           std::min(child->end_ns, span.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = span.start_ns;
    for (const auto& [start, end] : covered) {
      const int64_t from = std::max(start, reach);
      if (end > from) {
        covered_ns += end - from;
        reach = end;
      }
    }
    self_ms[span.layer] +=
        static_cast<double>(span.end_ns - span.start_ns - covered_ns) / 1e6;
  }
  return self_ms;
}

double SpanLog::SessionMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.parent == 0 && std::string(span.layer) == kSessionLayer) {
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  aid::JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& span : spans_) {
      w.BeginObject()
          .Key("name").String(span.layer)
          .Key("ph").String("X")
          .Key("ts").Double(static_cast<double>(span.start_ns) / 1e3)
          .Key("dur").Double(static_cast<double>(span.end_ns - span.start_ns) /
                             1e3)
          .Key("pid").U64(1)
          .Key("tid").U64(span.lane)
          .Key("args").BeginObject()
          .Key("id").U64(span.id)
          .Key("parent").U64(span.parent)
          .EndObject()
          .EndObject();
    }
  }
  w.EndArray().EndObject();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool wrote =
      std::fwrite(w.str().data(), 1, w.str().size(), file) == w.str().size();
  return std::fclose(file) == 0 && wrote;
}

Span::Span(SpanLog* log, const char* layer, uint64_t parent, uint32_t lane)
    : log_(log) {
  if (log_ == nullptr) return;
  record_.layer = layer;
  record_.id = log_->NextId();
  record_.parent = parent;
  record_.lane = lane;
  record_.start_ns = log_->Now();
}

void Span::End() {
  if (log_ == nullptr) return;
  record_.end_ns = log_->Now();
  log_->Record(record_);
  log_ = nullptr;
}

}  // namespace aidbench
