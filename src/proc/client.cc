#include "proc/client.h"

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "telemetry/telemetry.h"

#if AID_PROC_SUPPORTED
#include <sys/wait.h>
#endif

namespace aid {

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining budget against an absolute deadline, for channel calls that
/// want milliseconds. 0 = no deadline; -1 = budget exhausted.
int RemainingMs(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return 0;
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                             deadline - Clock::now())
                             .count();
  if (remaining <= 0) return -1;
  return static_cast<int>(remaining);
}

}  // namespace

Result<uint32_t> HandshakeSubject(FrameChannel& channel,
                                  std::string_view spec_bytes,
                                  const SubjectHandshake& options) {
  const bool has_deadline = options.timeout_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options.timeout_ms);

  int budget = RemainingMs(has_deadline, deadline);
  Result<ProcFrame> hello = channel.Read(budget < 0 ? 1 : budget);
  if (!hello.ok()) {
    return Status(hello.status().code(),
                  "handshake: no HELLO from " + options.peer + ": " +
                      hello.status().message());
  }
  if (hello->type != ProcMsgType::kHello) {
    return Status::Internal("handshake: expected HELLO from " + options.peer +
                            ", got " +
                            std::string(ProcMsgTypeName(hello->type)));
  }
  AID_ASSIGN_OR_RETURN(HelloMsg hello_msg, DecodeHello(hello->payload));
  if (hello_msg.version != kProcProtocolVersion) {
    return Status::FailedPrecondition(
        "handshake: protocol version mismatch (" + options.peer +
        " speaks v" + std::to_string(hello_msg.version) + ", engine v" +
        std::to_string(kProcProtocolVersion) + ")");
  }

  // Specs can exceed the transport's buffering; the deadline keeps a peer
  // that stops reading from wedging the handshake.
  budget = RemainingMs(has_deadline, deadline);
  if (budget < 0) {
    return Status::DeadlineExceeded("handshake: budget exhausted before SPEC");
  }
  AID_RETURN_IF_ERROR(channel.Write(ProcMsgType::kSpec, spec_bytes, budget));

  budget = RemainingMs(has_deadline, deadline);
  Result<ProcFrame> ready = channel.Read(budget < 0 ? 1 : budget);
  if (!ready.ok()) {
    return Status(ready.status().code(),
                  "handshake: " + options.peer +
                      " died during subject construction: " +
                      ready.status().message());
  }
  if (ready->type == ProcMsgType::kError) {
    AID_ASSIGN_OR_RETURN(ErrorMsg error, DecodeError(ready->payload));
    return error.ToStatus();
  }
  if (ready->type != ProcMsgType::kReady) {
    return Status::Internal("handshake: expected READY from " + options.peer +
                            ", got " +
                            std::string(ProcMsgTypeName(ready->type)));
  }
  AID_ASSIGN_OR_RETURN(ReadyMsg ready_msg, DecodeReady(ready->payload));
  if (options.expected_catalog_size != 0 &&
      options.expected_catalog_size != ready_msg.catalog_size) {
    return Status::Internal(
        "handshake: " + options.peer +
        " rebuilt a different predicate catalog (" +
        std::to_string(ready_msg.catalog_size) + " predicates, expected " +
        std::to_string(options.expected_catalog_size) +
        "); engine and host would disagree on predicate ids");
  }
  if (options.previous_catalog_size != 0 &&
      options.previous_catalog_size != ready_msg.catalog_size) {
    return Status::Internal(
        "handshake: respawned " + options.peer +
        " rebuilt a different catalog (" +
        std::to_string(ready_msg.catalog_size) + " vs " +
        std::to_string(options.previous_catalog_size) + " predicates)");
  }
  return ready_msg.catalog_size;
}

Result<PredicateLog> RunTrialOverChannel(
    FrameChannel& channel, uint64_t trial_index,
    const std::vector<PredicateId>& intervened, uint32_t catalog_size,
    int trial_deadline_ms, Telemetry* telemetry, uint64_t trial_span_id) {
  const bool has_deadline = trial_deadline_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(trial_deadline_ms);

  Tracer* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
  const bool propagate = tracer != nullptr && trial_span_id != 0;

  RunTrialMsg request;
  request.trial_index = trial_index;
  request.intervened = intervened;
  uint64_t engine_send_us = 0;
  if (propagate) {
    request.has_span_context = true;
    request.trace_id = 1;  // one trace per Telemetry bundle
    request.parent_span_id = trial_span_id;
    engine_send_us = tracer->NowMicros();
  }
  AID_RETURN_IF_ERROR(channel.Write(ProcMsgType::kRunTrial,
                                    EncodeRunTrial(request),
                                    has_deadline ? trial_deadline_ms : 0));

  // The deadline budgets the whole trial, the RUN_TRIAL write included.
  const int budget = RemainingMs(has_deadline, deadline);
  if (budget < 0) {
    return Status::DeadlineExceeded("trial " + std::to_string(trial_index) +
                                    ": deadline expired");
  }
  Result<ProcFrame> frame = channel.Read(budget);
  if (!frame.ok()) return frame.status();
  switch (frame->type) {
    case ProcMsgType::kVerdict: {
      Result<VerdictMsg> verdict = DecodeVerdict(frame->payload, catalog_size);
      if (!verdict.ok()) return verdict.status();
      if (propagate && verdict->has_host_telemetry) {
        // Re-base the host's steady-clock span times into this tracer's
        // timeline: the host anchored them on its RUN_TRIAL receive
        // timestamp, which happened (wire latency aside) at our send
        // timestamp. ImportSpan clamps inside the trial span, so skew
        // can never break the cross-process nesting.
        for (const WireHostSpan& span : verdict->host_spans) {
          const uint64_t start =
              engine_send_us +
              (span.start_us >= verdict->host_recv_us
                   ? span.start_us - verdict->host_recv_us
                   : 0);
          const uint64_t end =
              engine_send_us +
              (span.end_us >= verdict->host_recv_us
                   ? span.end_us - verdict->host_recv_us
                   : 0);
          tracer->ImportSpan(span.name, trial_span_id, start, end);
        }
      }
      return std::move(verdict->log);
    }
    case ProcMsgType::kError: {
      Result<ErrorMsg> error = DecodeError(frame->payload);
      if (!error.ok()) return error.status();
      return error->ToStatus();
    }
    default:
      return Status::Internal("trial " + std::to_string(trial_index) +
                              ": unexpected frame " +
                              std::string(ProcMsgTypeName(frame->type)));
  }
}

Result<std::shared_ptr<const std::string>> WireReplicaTarget::FreezeSpec(
    const SubjectSpec& spec, const WireReplicaOptions& options,
    std::string_view who) {
  if (options.trial_deadline_ms < 0) {
    return Status::InvalidArgument(
        std::string(who) + ": trial_deadline_ms must be >= 0, got " +
        std::to_string(options.trial_deadline_ms));
  }
  if (options.max_respawns < 0) {
    return Status::InvalidArgument(
        std::string(who) + ": max_respawns must be >= 0, got " +
        std::to_string(options.max_respawns));
  }
  SubjectSpec effective = spec;
  if (options.inject_crash_period != 0) {
    effective.crash_period = options.inject_crash_period;
  }
  if (options.inject_hang_period != 0) {
    effective.hang_period = options.inject_hang_period;
  }
  AID_ASSIGN_OR_RETURN(std::string bytes, EncodeSubjectSpec(effective));
  return std::make_shared<const std::string>(std::move(bytes));
}

Result<TargetRunResult> WireReplicaTarget::RunIntervened(
    const std::vector<PredicateId>& intervened, int trials) {
  if (trials < 1) trials = 1;
  TargetRunResult result;
  result.logs.reserve(static_cast<size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    const uint64_t trial_index = trial_cursor_++;
    ++counters_.executions;
    AID_ASSIGN_OR_RETURN(PredicateLog log, RunTrial(intervened, trial_index));
    result.logs.push_back(std::move(log));
  }
  return result;
}

Result<std::unique_ptr<ReplicableTarget>> WireReplicaTarget::Clone() const {
  std::unique_ptr<WireReplicaTarget> clone = NewReplica();
  clone->trial_cursor_ = trial_cursor_;
  return std::unique_ptr<ReplicableTarget>(std::move(clone));
}

Status WireReplicaTarget::HandshakePeer(FrameChannel& channel,
                                        std::string peer, int timeout_ms) {
  SubjectHandshake handshake;
  handshake.timeout_ms = timeout_ms;
  handshake.expected_catalog_size = options().expected_catalog_size;
  handshake.previous_catalog_size = catalog_size_;
  handshake.peer = std::move(peer);
  Result<uint32_t> catalog = HandshakeSubject(channel, *spec_bytes_,
                                              handshake);
  if (!catalog.ok()) {
    return Status(catalog.status().code(),
                  std::string(who_) + ": " + catalog.status().message());
  }
  catalog_size_ = *catalog;
  return Status::OK();
}

void WireReplicaTarget::DropPeer(bool graceful) {
  if (channel_ == nullptr) return;
  if (graceful) {
    // Best-effort goodbye so the peer exits promptly instead of
    // discovering the closed channel on its next read.
    (void)channel_->Write(ProcMsgType::kShutdown, {}, /*deadline_ms=*/1000);
  }
  channel_.reset();  // closing is the EOF backstop for peers mid-read
  ReapPeer(graceful);
}

Status WireReplicaTarget::EnsurePeer() {
  if (channel_ != nullptr) return Status::OK();
  AID_ASSIGN_OR_RETURN(channel_, StartPeer());
  return Status::OK();
}

Status WireReplicaTarget::Respawn() {
  DropPeer(/*graceful=*/false);
  if (counters_.respawns >= static_cast<uint64_t>(options().max_respawns)) {
    return Status::Aborted(std::string(who_) +
                           ": subject crashed/hung through " +
                           std::to_string(counters_.respawns) +
                           " respawns (max_respawns); giving up on a crash "
                           "loop");
  }
  ++counters_.respawns;
  return EnsurePeer();
}

Result<PredicateLog> WireReplicaTarget::RunTrial(
    const std::vector<PredicateId>& intervened, uint64_t trial_index) {
  AID_RETURN_IF_ERROR(EnsurePeer());
  Telemetry* telemetry = options().telemetry.get();
  // Trial timing at the wire, charged on every exit path: the substrate's
  // real per-trial latency -- RPC round trip and any respawn -- feeds the
  // latency-aware scheduler's per-replica EWMA (exec/scheduler.h).
  const Clock::time_point start = Clock::now();
  // Read before the trial: a respawn replaces the channel and may move to
  // another endpoint.
  const std::string_view transport = channel_->transport();
  const std::string endpoint =
      telemetry != nullptr ? endpoint_label() : std::string();
  // The engine-side "trial" span, parented under whatever round span the
  // engine published. It covers the whole trial including any respawn,
  // and is the import anchor for the host-side spans.
  ScopedSpan trial_span;
  if (telemetry != nullptr && telemetry->tracer() != nullptr) {
    trial_span = ScopedSpan(telemetry->tracer(), "trial",
                            telemetry->active_parent());
  }
  Result<PredicateLog> out = [&]() -> Result<PredicateLog> {
    Result<PredicateLog> run = RunTrialOverChannel(
        *channel_, trial_index, intervened, catalog_size_,
        options().trial_deadline_ms, telemetry, trial_span.id());
    if (run.ok()) return run;
    PredicateLog log;
    log.failed = true;
    if (run.status().code() == StatusCode::kAborted) {
      log.outcome = TrialOutcome::kCrashed;
      ++counters_.crashed_trials;
    } else if (run.status().code() == StatusCode::kDeadlineExceeded) {
      log.outcome = TrialOutcome::kTimedOut;
      ++counters_.timed_out_trials;
    } else {
      return run;
    }
    AID_RETURN_IF_ERROR(Respawn());
    return log;
  }();
  trial_span.End();
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - start)
                           .count();
  if (elapsed <= 0) return out;
  counters_.trial_micros += static_cast<uint64_t>(elapsed);
  if (telemetry != nullptr) {
    telemetry
        ->LatencyHistogram("aid_trial_latency_us",
                           {{"transport", std::string(transport)}})
        ->Record(static_cast<uint64_t>(elapsed));
    if (!endpoint.empty()) {
      telemetry
          ->LatencyHistogram("aid_endpoint_trial_latency_us",
                             {{"endpoint", endpoint}})
          ->Record(static_cast<uint64_t>(elapsed));
    }
  }
  return out;
}

#if AID_PROC_SUPPORTED
pid_t WaitpidRetry(pid_t pid, int* status, int flags) {
  for (;;) {
    const pid_t rc = ::waitpid(pid, status, flags);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}
#endif

}  // namespace aid
