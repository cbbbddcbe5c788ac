#include "core/target.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "trace/serialize.h"

namespace aid {

SubstrateCounters& SubstrateCounters::operator+=(
    const SubstrateCounters& other) {
  for (const Field& field : kFields) this->*field.member += other.*field.member;
  if (replica_trials.size() < other.replica_trials.size()) {
    replica_trials.resize(other.replica_trials.size(), 0);
  }
  for (size_t i = 0; i < other.replica_trials.size(); ++i) {
    replica_trials[i] += other.replica_trials[i];
  }
  return *this;
}

SubstrateCounters operator-(SubstrateCounters after,
                            const SubstrateCounters& before) {
  for (const SubstrateCounters::Field& field : SubstrateCounters::kFields) {
    after.*field.member -= before.*field.member;
  }
  const size_t shared =
      std::min(after.replica_trials.size(), before.replica_trials.size());
  for (size_t i = 0; i < shared; ++i) {
    after.replica_trials[i] -= before.replica_trials[i];
  }
  return after;
}

void SubstrateCounters::Encode(WireWriter& writer) const {
  for (const Field& field : kFields) writer.U64(this->*field.member);
  writer.U32(static_cast<uint32_t>(replica_trials.size()));
  for (uint64_t trials : replica_trials) writer.U64(trials);
}

SubstrateCounters SubstrateCounters::Decode(WireReader& reader) {
  SubstrateCounters counters;
  for (const Field& field : kFields) counters.*field.member = reader.U64();
  const uint32_t replicas = reader.Count(sizeof(uint64_t));
  counters.replica_trials.reserve(replicas);
  for (uint32_t i = 0; i < replicas; ++i) {
    counters.replica_trials.push_back(reader.U64());
  }
  return counters;
}

void SubstrateCounters::FoldInto(MetricsRegistry& metrics) const {
  for (const Field& field : kFields) {
    metrics.GetCounter(field.metric)->Add(this->*field.member);
  }
}

}  // namespace aid
