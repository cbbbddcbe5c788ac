#include "net/fleet_target.h"

#include <utility>

namespace aid {

Result<std::unique_ptr<FleetTarget>> FleetTarget::Create(
    std::vector<Endpoint> endpoints, const SubjectSpec& spec,
    RemoteOptions options) {
  // The fleet IS a dealer of RemoteTargets: one validation and one frozen
  // spec, shared by every replica it deals.
  AID_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> spec_bytes,
                       RemoteTarget::Freeze(endpoints, spec, options));
  return std::unique_ptr<FleetTarget>(new FleetTarget(
      std::move(spec_bytes), std::move(endpoints), std::move(options)));
}

std::vector<Endpoint> FleetTarget::RotatedEndpoints(uint64_t first) const {
  const size_t m = endpoints_.size();
  std::vector<Endpoint> rotated;
  rotated.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    rotated.push_back(endpoints_[(first + i) % m]);
  }
  return rotated;
}

std::unique_ptr<RemoteTarget> FleetTarget::DealReplica() const {
  return std::unique_ptr<RemoteTarget>(new RemoteTarget(
      spec_bytes_, RotatedEndpoints(next_endpoint_++), options_));
}

Result<TargetRunResult> FleetTarget::RunIntervened(
    const std::vector<PredicateId>& intervened, int trials) {
  if (self_ == nullptr) {
    self_ = DealReplica();
    self_->SeekTrial(trial_cursor_);
  }
  auto result = self_->RunIntervened(intervened, trials);
  if (result.ok()) {
    trial_cursor_ = self_->trial_position();
  } else {
    // Commit only on success: the failed call consumed some unknowable
    // prefix of its trials, and adopting self_'s half-advanced position
    // would desync this cursor from what serial dispatch -- which stops at
    // its first error -- actually consumed. Re-align self_ instead so a
    // retry re-runs the same positions.
    self_->SeekTrial(trial_cursor_);
  }
  return result;
}

Result<std::unique_ptr<ReplicableTarget>> FleetTarget::Clone() const {
  std::unique_ptr<RemoteTarget> replica = DealReplica();
  replica->SeekTrial(trial_cursor_);
  return std::unique_ptr<ReplicableTarget>(std::move(replica));
}

void FleetTarget::SeekTrial(uint64_t trial_index) {
  trial_cursor_ = trial_index;
  if (self_ != nullptr) self_->SeekTrial(trial_index);
}

}  // namespace aid
