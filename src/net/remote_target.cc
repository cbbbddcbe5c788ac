#include "net/remote_target.h"

#include <chrono>
#include <thread>
#include <utility>

#include "proc/client.h"
#include "telemetry/telemetry.h"

namespace aid {

Result<std::unique_ptr<RemoteTarget>> RemoteTarget::Create(
    std::vector<Endpoint> endpoints, const SubjectSpec& spec,
    RemoteOptions options) {
  if (!RemoteFleetSupported()) {
    return Status::Unimplemented(
        "RemoteTarget: the remote fleet requires POSIX sockets, which this "
        "platform does not provide");
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument(
        "RemoteTarget: at least one runner endpoint is required");
  }
  if (options.trial_deadline_ms < 0) {
    return Status::InvalidArgument(
        "RemoteTarget: trial_deadline_ms must be >= 0, got " +
        std::to_string(options.trial_deadline_ms));
  }
  if (options.max_reconnects < 0) {
    return Status::InvalidArgument(
        "RemoteTarget: max_reconnects must be >= 0, got " +
        std::to_string(options.max_reconnects));
  }
  if (options.connect_attempts < 1) {
    return Status::InvalidArgument(
        "RemoteTarget: connect_attempts must be >= 1, got " +
        std::to_string(options.connect_attempts));
  }
  SubjectSpec effective = spec;
  // Injection knobs live on the options (the session-facing surface) but
  // execute in the runner's session child, so they ride inside the spec.
  if (options.inject_crash_period != 0) {
    effective.crash_period = options.inject_crash_period;
  }
  if (options.inject_hang_period != 0) {
    effective.hang_period = options.inject_hang_period;
  }
  AID_ASSIGN_OR_RETURN(std::string bytes, EncodeSubjectSpec(effective));
  return std::unique_ptr<RemoteTarget>(new RemoteTarget(
      std::make_shared<const std::string>(std::move(bytes)),
      std::move(endpoints), std::move(options)));
}

RemoteTarget::~RemoteTarget() {
  if (channel_ != nullptr) {
    // Best-effort goodbye so the runner's session child exits promptly
    // instead of discovering the closed socket on its next read.
    (void)channel_->Write(ProcMsgType::kShutdown, {},
                          /*deadline_ms=*/1000);
  }
  Disconnect();
}

Status RemoteTarget::EnsureConnected() {
  if (channel_ != nullptr) return Status::OK();

  Status last = Status::Internal("RemoteTarget: no connect attempt ran");
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff before every retry; the first attempt is
      // immediate (the common reconnect case is a crashed session child
      // behind a perfectly healthy runner). Widened arithmetic: a large
      // base times 2^attempt must saturate at the cap, not overflow.
      const int shift = attempt - 1 < 20 ? attempt - 1 : 20;
      const int64_t unclamped = static_cast<int64_t>(options_.backoff_ms)
                                << shift;
      const int sleep_ms =
          unclamped > options_.backoff_max_ms || unclamped <= 0
              ? options_.backoff_max_ms
              : static_cast<int>(unclamped);
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
    }
    // connect_timeout_ms budgets the whole attempt: TCP connect AND the
    // handshake share one absolute deadline.
    const auto attempt_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.connect_timeout_ms);
    const Endpoint& endpoint = current_endpoint();
    Result<int> fd = ConnectTo(endpoint, options_.connect_timeout_ms);
    if (!fd.ok()) {
      last = Status(fd.status().code(),
                    "RemoteTarget: " + endpoint.ToString() +
                        " unreachable: " + fd.status().message());
      ++endpoint_index_;  // fail over to the next endpoint in preference
      continue;
    }
    auto channel = std::make_unique<SocketChannel>(*fd);
    SubjectHandshake handshake;
    const auto handshake_budget =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            attempt_deadline - std::chrono::steady_clock::now())
            .count();
    handshake.timeout_ms =
        handshake_budget > 0 ? static_cast<int>(handshake_budget) : 1;
    handshake.expected_catalog_size = options_.expected_catalog_size;
    handshake.previous_catalog_size = remote_catalog_size_;
    handshake.peer = "runner " + endpoint.ToString();
    Result<uint32_t> catalog =
        HandshakeSubject(*channel, *spec_bytes_, handshake);
    if (!catalog.ok()) {
      // A structural handshake failure -- version mismatch
      // (FailedPrecondition) or a host that cannot decode/build the
      // shipped spec (InvalidArgument) -- will not heal by retrying
      // elsewhere: the fleet is misdeployed. Fail loudly instead of
      // burning the backoff schedule. Everything else (Internal covers
      // both catalog mismatches AND transient local I/O, Aborted a peer
      // that died mid-handshake) stays retryable with failover, because a
      // flaky read must not abort a run that a healthy sibling endpoint
      // could have served.
      const StatusCode code = catalog.status().code();
      if (code == StatusCode::kFailedPrecondition ||
          code == StatusCode::kInvalidArgument) {
        return Status(code, "RemoteTarget: " + catalog.status().message());
      }
      last = Status(code, "RemoteTarget: " + catalog.status().message());
      ++endpoint_index_;
      continue;
    }
    remote_catalog_size_ = *catalog;
    channel_ = std::move(channel);
    return Status::OK();
  }
  return Status(last.code(),
                last.message() + " (after " +
                    std::to_string(options_.connect_attempts) +
                    " attempts across " +
                    std::to_string(endpoints_.size()) + " endpoint(s))");
}

void RemoteTarget::Disconnect() { channel_.reset(); }

Status RemoteTarget::Reconnect() {
  Disconnect();
  if (counters_.respawns >= static_cast<uint64_t>(options_.max_reconnects)) {
    return Status::Aborted(
        "RemoteTarget: remote subject crashed/hung through " +
        std::to_string(counters_.respawns) +
        " reconnects (max_reconnects); giving up on a crash loop");
  }
  ++counters_.respawns;
  return EnsureConnected();
}

Result<PredicateLog> RemoteTarget::RunOneTrial(
    const std::vector<PredicateId>& intervened, uint64_t trial_index) {
  AID_RETURN_IF_ERROR(EnsureConnected());
  // Connection loss -> kCrashed, deadline -> kTimedOut, reconnect either
  // way (proc/client.h has the full lifecycle contract). On a timeout the
  // dropped connection is also what kills the hung remote subject: the
  // runner-side watchdog sees the hangup and reaps its session child.
  const Endpoint served_by = current_endpoint();
  const uint64_t micros_before = counters_.trial_micros;
  Result<PredicateLog> log =
      RunTrialWithRecovery(*channel_, trial_index, intervened,
                           remote_catalog_size_, options_.trial_deadline_ms,
                           &counters_,
                           [this]() { return Reconnect(); },
                           options_.telemetry.get());
  const uint64_t trial_micros = counters_.trial_micros - micros_before;
  if (options_.telemetry != nullptr && trial_micros > 0) {
    // Per-endpoint latency distribution (the generic per-transport
    // histogram is recorded inside RunTrialWithRecovery).
    options_.telemetry
        ->LatencyHistogram("aid_endpoint_trial_latency_us",
                           {{"endpoint", served_by.ToString()}})
        ->Record(trial_micros);
  }
  return log;
}

Result<TargetRunResult> RemoteTarget::RunIntervened(
    const std::vector<PredicateId>& intervened, int trials) {
  if (trials < 1) trials = 1;
  TargetRunResult result;
  result.logs.reserve(static_cast<size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    const uint64_t trial_index = trial_cursor_++;
    ++counters_.executions;
    AID_ASSIGN_OR_RETURN(PredicateLog log,
                         RunOneTrial(intervened, trial_index));
    result.logs.push_back(std::move(log));
  }
  return result;
}

Result<std::unique_ptr<ReplicableTarget>> RemoteTarget::Clone() const {
  auto clone = std::unique_ptr<RemoteTarget>(
      new RemoteTarget(spec_bytes_, endpoints_, options_));
  clone->trial_cursor_ = trial_cursor_;
  return std::unique_ptr<ReplicableTarget>(std::move(clone));
}

}  // namespace aid
