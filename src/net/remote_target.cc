#include "net/remote_target.h"

#include <chrono>
#include <thread>
#include <utility>

#include "net/channel.h"

namespace aid {

Result<std::shared_ptr<const std::string>> RemoteTarget::Freeze(
    const std::vector<Endpoint>& endpoints, const SubjectSpec& spec,
    const RemoteOptions& options) {
  if (!RemoteFleetSupported()) {
    return Status::Unimplemented(
        "RemoteTarget: the remote fleet requires POSIX sockets, which this "
        "platform does not provide");
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument(
        "RemoteTarget: at least one runner endpoint is required");
  }
  if (options.connect_attempts < 1) {
    return Status::InvalidArgument(
        "RemoteTarget: connect_attempts must be >= 1, got " +
        std::to_string(options.connect_attempts));
  }
  return FreezeSpec(spec, options, "RemoteTarget");
}

Result<std::unique_ptr<RemoteTarget>> RemoteTarget::Create(
    std::vector<Endpoint> endpoints, const SubjectSpec& spec,
    RemoteOptions options) {
  AID_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> bytes,
                       Freeze(endpoints, spec, options));
  return std::unique_ptr<RemoteTarget>(new RemoteTarget(
      std::move(bytes), std::move(endpoints), std::move(options)));
}

RemoteTarget::~RemoteTarget() { DropPeer(/*graceful=*/true); }

Result<std::unique_ptr<FrameChannel>> RemoteTarget::StartPeer() {
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
    // startup_timeout_ms budgets the whole attempt: TCP connect AND the
    // handshake share one absolute deadline.
    const auto attempt_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.startup_timeout_ms);
    const Endpoint& endpoint = current_endpoint();
    Result<int> fd = ConnectTo(endpoint, options_.startup_timeout_ms);
    if (!fd.ok()) {
      last = Status(fd.status().code(),
                    "RemoteTarget: " + endpoint.ToString() +
                        " unreachable: " + fd.status().message());
      ++endpoint_index_;  // fail over to the next endpoint in preference
      continue;
    }
    auto channel = std::make_unique<SocketChannel>(*fd);
    const auto handshake_budget =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            attempt_deadline - std::chrono::steady_clock::now())
            .count();
    Status handshake = HandshakePeer(
        *channel, "runner " + endpoint.ToString(),
        handshake_budget > 0 ? static_cast<int>(handshake_budget) : 1);
    if (handshake.ok()) {
      return std::unique_ptr<FrameChannel>(std::move(channel));
    }
    // A structural handshake failure -- version mismatch
    // (FailedPrecondition) or a host that cannot decode/build the shipped
    // spec (InvalidArgument) -- will not heal by retrying elsewhere: the
    // fleet is misdeployed. Fail loudly instead of burning the backoff
    // schedule. Everything else (Internal covers both catalog mismatches
    // AND transient local I/O, Aborted a peer that died mid-handshake)
    // stays retryable with failover, because a flaky read must not abort a
    // run that a healthy sibling endpoint could have served.
    if (handshake.code() == StatusCode::kFailedPrecondition ||
        handshake.code() == StatusCode::kInvalidArgument) {
      return handshake;
    }
    last = std::move(handshake);
    ++endpoint_index_;
  }
  return Status(last.code(),
                last.message() + " (after " +
                    std::to_string(options_.connect_attempts) +
                    " attempts across " +
                    std::to_string(endpoints_.size()) + " endpoint(s))");
}

std::unique_ptr<WireReplicaTarget> RemoteTarget::NewReplica() const {
  return std::unique_ptr<WireReplicaTarget>(
      new RemoteTarget(spec_bytes(), endpoints_, options_));
}

}  // namespace aid
