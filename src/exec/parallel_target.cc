#include "exec/parallel_target.h"

#include <utility>

namespace aid {

Status ValidateParallelism(int parallelism) {
  if (parallelism < 1) {
    return Status::InvalidArgument(
        "parallelism must be >= 1 (1 = serial dispatch), got " +
        std::to_string(parallelism));
  }
  if (parallelism > kMaxParallelism) {
    return Status::InvalidArgument(
        "parallelism must be <= " + std::to_string(kMaxParallelism) +
        " (each worker is a full target replica), got " +
        std::to_string(parallelism));
  }
  return Status::OK();
}

Result<std::unique_ptr<ParallelTarget>> ParallelTarget::Create(
    const ReplicableTarget* primary, int parallelism,
    SchedulerOptions scheduler, Telemetry* telemetry) {
  if (primary == nullptr) {
    return Status::InvalidArgument("ParallelTarget: primary must not be null");
  }
  AID_RETURN_IF_ERROR(ValidateParallelism(parallelism));
  AID_RETURN_IF_ERROR(ValidateSchedulerOptions(scheduler));
  std::vector<std::unique_ptr<ReplicableTarget>> replicas;
  replicas.reserve(static_cast<size_t>(parallelism));
  for (int i = 0; i < parallelism; ++i) {
    AID_ASSIGN_OR_RETURN(std::unique_ptr<ReplicableTarget> replica,
                         primary->Clone());
    replicas.push_back(std::move(replica));
  }
  return std::unique_ptr<ParallelTarget>(new ParallelTarget(
      primary, std::move(replicas), scheduler, telemetry));
}

ParallelTarget::ParallelTarget(
    const ReplicableTarget* primary,
    std::vector<std::unique_ptr<ReplicableTarget>> replicas,
    SchedulerOptions scheduler, Telemetry* telemetry)
    : primary_(primary),
      replicas_(std::move(replicas)),
      scheduler_(scheduler, replicas_.size(), telemetry),
      pool_(static_cast<int>(replicas_.size())),
      // Continue exactly where the primary's serial execution left off.
      trial_cursor_(primary->trial_position()) {
  replica_ptrs_.reserve(replicas_.size());
  for (auto& replica : replicas_) replica_ptrs_.push_back(replica.get());
}

Result<std::vector<TargetRunResult>> ParallelTarget::Dispatch(
    const InterventionSpans& spans, int trials) {
  const uint64_t base = trial_cursor_;
  const std::vector<ChunkScheduler::Chunk> chunks =
      scheduler_.MakeChunks(spans, trials, base);
  std::vector<TargetRunResult> results(spans.size());
  for (TargetRunResult& result : results) {
    result.logs.resize(static_cast<size_t>(trials));
  }
  AID_RETURN_IF_ERROR(
      scheduler_.RunRound(pool_, replica_ptrs_, chunks, &results));
  // Commit only on success: a failed round leaves the cursor where serial
  // dispatch -- which stops at its first error -- left it, so accounting
  // and positions cannot drift apart on error paths.
  trial_cursor_ = base + static_cast<uint64_t>(spans.size()) *
                             static_cast<uint64_t>(trials);
  return results;
}

Result<TargetRunResult> ParallelTarget::RunIntervened(
    const std::vector<PredicateId>& intervened, int trials) {
  if (trials < 1) trials = 1;
  const InterventionSpans spans{intervened};
  AID_ASSIGN_OR_RETURN(std::vector<TargetRunResult> results,
                       Dispatch(spans, trials));
  return std::move(results.front());
}

Result<std::vector<TargetRunResult>> ParallelTarget::RunInterventionsBatch(
    const InterventionSpans& spans, int trials) {
  if (trials < 1) trials = 1;
  if (spans.empty()) return std::vector<TargetRunResult>{};
  return Dispatch(spans, trials);
}

uint64_t ParallelTarget::executions() const {
  // Safe to read without synchronization: every dispatch entry point joins
  // its futures before returning, so replica counters are quiescent (and
  // ordered by the futures' happens-before edges) whenever callers can
  // observe this target.
  uint64_t total = primary_->executions();
  for (const auto& replica : replicas_) total += replica->executions();
  return total;
}

SubstrateCounters ParallelTarget::counters() const {
  SubstrateCounters total = primary_->counters();
  for (const auto& replica : replicas_) total += replica->counters();
  total += scheduler_.stats();
  return total;
}

}  // namespace aid
