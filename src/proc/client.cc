#include "proc/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "core/engine.h"
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

/// Imports a VERDICT's host-side spans under `trial_span`, re-based into
/// the tracer's timeline: the host anchored them on the moment it began
/// the trial, which happened (wire latency aside) at `anchor_us`, when the
/// engine opened the trial's span. ImportSpan clamps inside the trial
/// span, so skew can never break the cross-process nesting.
void ImportHostSpans(Tracer& tracer, uint64_t trial_span, uint64_t anchor_us,
                     const VerdictMsg& verdict) {
  if (!verdict.has_host_telemetry) return;
  const uint64_t host_start = verdict.host_recv_us;
  auto rebase = [&](uint64_t host_us) {
    return anchor_us + (host_us >= host_start ? host_us - host_start : 0);
  };
  for (const WireHostSpan& span : verdict.host_spans) {
    tracer.ImportSpan(span.name, trial_span, rebase(span.start_us),
                      rebase(span.end_us));
  }
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

Result<VerdictMsg> ReadTrialAnswer(FrameChannel& channel,
                                   uint64_t trial_index,
                                   uint32_t catalog_size, int deadline_ms,
                                   bool* in_step) {
  *in_step = false;
  Result<ProcFrame> frame = channel.Read(deadline_ms);
  if (!frame.ok()) return frame.status();
  switch (frame->type) {
    case ProcMsgType::kVerdict: {
      Result<VerdictMsg> verdict = DecodeVerdict(frame->payload, catalog_size);
      *in_step = verdict.ok();
      return verdict;
    }
    case ProcMsgType::kError: {
      Result<ErrorMsg> error = DecodeError(frame->payload);
      if (!error.ok()) return error.status();
      *in_step = true;
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
  for (int left = trials; left > 0;
       left = trials - static_cast<int>(result.logs.size())) {
    AID_RETURN_IF_ERROR(RunBatch(
        intervened, std::min(left, kMaxTrialsPerIntervention), result.logs));
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

Status WireReplicaTarget::RunBatch(const std::vector<PredicateId>& intervened,
                                   int count,
                                   std::vector<PredicateLog>& logs) {
  AID_RETURN_IF_ERROR(EnsurePeer());
  Telemetry* telemetry = options().telemetry.get();
  Tracer* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
  const int deadline_ms = options().trial_deadline_ms;
  // Read before the batch: a respawn replaces the channel and may move to
  // another endpoint.
  const std::string_view transport = channel_->transport();
  const std::string endpoint =
      telemetry != nullptr ? endpoint_label() : std::string();

  // Each trial is timed on its own, on every exit path: its share of the
  // round trip plus any respawn feeds the latency-aware scheduler's
  // per-replica EWMA (exec/scheduler.h). Trial k's clock, deadline and
  // span start when answer k-1 arrives; the first trial's before the send.
  Clock::time_point start = Clock::now();
  // The engine-side "trial" span, parented under whatever round span the
  // engine published. It covers the trial including any respawn, and is
  // the import anchor for the host-side spans.
  ScopedSpan trial_span;
  uint64_t anchor_us = 0;
  auto open_trial_span = [&]() {
    if (tracer == nullptr) return;
    trial_span = ScopedSpan(tracer, "trial", telemetry->active_parent());
    anchor_us = tracer->NowMicros();
  };
  open_trial_span();

  RunTrialMsg request;
  request.trial_index = trial_cursor_;
  request.count = static_cast<uint32_t>(count);
  request.intervened = intervened;
  if (trial_span.id() != 0) {
    request.has_span_context = true;
    request.trace_id = 1;  // one trace per Telemetry bundle
    request.parent_span_id = trial_span.id();
  }
  const Status sent = channel_->Write(ProcMsgType::kRunTrial,
                                      EncodeRunTrial(request), deadline_ms);

  for (int k = 0; k < count; ++k) {
    const uint64_t trial_index = trial_cursor_++;
    ++counters_.executions;
    // A failed send leaves the first trial unanswered (and the request
    // perhaps half written).
    bool in_step = false;
    const int budget = RemainingMs(
        deadline_ms > 0, start + std::chrono::milliseconds(deadline_ms));
    Result<VerdictMsg> answer =
        !sent.ok()     ? Result<VerdictMsg>(sent)
        : budget < 0   ? Result<VerdictMsg>(Status::DeadlineExceeded(
                             "trial " + std::to_string(trial_index) +
                             ": deadline expired"))
                       : ReadTrialAnswer(*channel_, trial_index, catalog_size_,
                                         budget, &in_step);
    if (answer.ok() && trial_span.id() != 0) {
      ImportHostSpans(*tracer, trial_span.id(), anchor_us, *answer);
    }
    Result<PredicateLog> out =
        answer.ok() ? Result<PredicateLog>(std::move(answer->log))
                    : UnansweredTrial(answer.status(), in_step);
    trial_span.End();
    const Clock::time_point now = Clock::now();
    ChargeTrial(std::chrono::duration_cast<std::chrono::microseconds>(
                    now - start)
                    .count(),
                transport, endpoint);
    if (!out.ok()) return out.status();
    logs.push_back(std::move(out).value());
    // A crash or timeout respawned the peer: the caller re-sends the rest.
    if (!logs.back().complete()) return Status::OK();
    if (k + 1 < count) {
      start = now;
      open_trial_span();
    }
  }
  return Status::OK();
}

Result<PredicateLog> WireReplicaTarget::UnansweredTrial(const Status& failure,
                                                        bool in_step) {
  // Later answers of the batch may still be in flight, or half a frame:
  // the next call must never read them.
  if (!in_step) DropPeer(/*graceful=*/false);
  PredicateLog log;
  log.failed = true;
  if (failure.code() == StatusCode::kAborted) {
    log.outcome = TrialOutcome::kCrashed;
    ++counters_.crashed_trials;
  } else if (failure.code() == StatusCode::kDeadlineExceeded) {
    log.outcome = TrialOutcome::kTimedOut;
    ++counters_.timed_out_trials;
  } else {
    return failure;
  }
  AID_RETURN_IF_ERROR(Respawn());
  return log;
}

void WireReplicaTarget::ChargeTrial(int64_t elapsed_us,
                                    std::string_view transport,
                                    const std::string& endpoint) {
  if (elapsed_us <= 0) return;
  const uint64_t micros = static_cast<uint64_t>(elapsed_us);
  counters_.trial_micros += micros;
  Telemetry* telemetry = options().telemetry.get();
  if (telemetry == nullptr) return;
  telemetry
      ->LatencyHistogram("aid_trial_latency_us",
                         {{"transport", std::string(transport)}})
      ->Record(micros);
  if (!endpoint.empty()) {
    telemetry
        ->LatencyHistogram("aid_endpoint_trial_latency_us",
                           {{"endpoint", endpoint}})
        ->Record(micros);
  }
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
