#include "proc/subject_host.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "casestudies/case_study.h"
#include "common/logging.h"
#include "core/vm_target.h"
#include "proc/wire.h"
#include "synth/flaky_target.h"
#include "telemetry/json.h"

#if AID_PROC_SUPPORTED
#include <unistd.h>
#endif

namespace aid {
namespace {

/// Owns whatever the spec's target borrows (a case study's program) next to
/// the target itself, in destruction-safe order.
struct HostSubject {
  std::unique_ptr<CaseStudy> study;
  std::unique_ptr<ReplicableTarget> target;
  size_t catalog_size = 0;
};

Result<HostSubject> BuildHostSubject(const OwnedSubjectSpec& spec) {
  HostSubject subject;
  switch (spec.kind) {
    case SubjectKind::kModel:
    case SubjectKind::kFlakyModel: {
      if (spec.model == nullptr) {
        return Status::InvalidArgument("subject host: spec carries no model");
      }
      AID_ASSIGN_OR_RETURN(subject.target, BuildSubjectTarget(spec));
      subject.catalog_size = spec.model->catalog().size();
      return subject;
    }
    case SubjectKind::kCase: {
      AID_ASSIGN_OR_RETURN(CaseStudy study, MakeCaseStudyByKey(spec.case_key));
      subject.study = std::make_unique<CaseStudy>(std::move(study));
      AID_ASSIGN_OR_RETURN(
          std::unique_ptr<VmTarget> target,
          VmTarget::Create(&subject.study->program,
                           subject.study->target_options));
      subject.catalog_size = target->extractor().catalog().size();
      subject.target = std::move(target);
      return subject;
    }
    case SubjectKind::kVmProgram: {
      if (spec.program == nullptr) {
        return Status::InvalidArgument("subject host: spec carries no program");
      }
      AID_ASSIGN_OR_RETURN(std::unique_ptr<VmTarget> target,
                           VmTarget::Create(spec.program.get(), spec.vm));
      subject.catalog_size = target->extractor().catalog().size();
      subject.target = std::move(target);
      return subject;
    }
  }
  return Status::InvalidArgument("subject host: unknown subject kind");
}

/// Poisoned-trial check: 1-based global trial index hits the period.
bool HitsPeriod(uint64_t trial_index, uint64_t period) {
  return period != 0 && (trial_index + 1) % period == 0;
}

[[noreturn]] void HangForever() {
  // A deliberately wedged subject: the paper's hung-subject scenario. The
  // parent's per-trial deadline is the only way out (SIGKILL).
  for (;;) std::this_thread::sleep_for(std::chrono::hours(24));
}

/// Microseconds on the host's steady clock (CLOCK_MONOTONIC; shared by
/// every process on the machine, which is what lets the runner daemon's
/// start time be compared against a child's now).
uint64_t HostNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Answers a trial with its one VERDICT frame: the whole predicate log plus,
/// when asked for, the host telemetry block.
Status SendTrialAnswer(FrameChannel& channel, PredicateLog log,
                       bool with_telemetry, uint64_t host_recv_us,
                       std::vector<WireHostSpan> host_spans) {
  VerdictMsg verdict;
  verdict.log = std::move(log);
  if (with_telemetry) {
    // The engine asked for span context on the RUN_TRIAL; answer with the
    // host-side spans in OUR clock domain, anchored on the receive
    // timestamp the engine re-bases against (see proc/client.cc).
    verdict.has_host_telemetry = true;
    verdict.host_recv_us = host_recv_us;
    verdict.host_spans = std::move(host_spans);
  }
  return channel.Write(ProcMsgType::kVerdict, EncodeVerdict(verdict));
}

/// Answers a STATS request with the self-describing JSON document of
/// `aid_runner --stats`: daemon uptime / session count (zeros when run
/// outside a daemon, e.g. under plain SubprocessTarget) plus the shared
/// trial totals and latency histogram of the whole fleet node.
Status AnswerStats(FrameChannel& channel, const SubjectHostOptions& host) {
  JsonWriter w;
  w.BeginObject();
  const uint64_t uptime_us =
      host.daemon_start_micros != 0 &&
              HostNowMicros() > host.daemon_start_micros
          ? HostNowMicros() - host.daemon_start_micros
          : 0;
  w.Key("uptime_seconds").U64(uptime_us / 1000000);
  w.Key("sessions_started").U64(host.daemon_sessions_started);
  uint64_t trials = 0;
  uint64_t failed = 0;
  uint64_t micros = 0;
  w.Key("trial_latency_us").BeginObject();
  w.Key("bounds").BeginArray();
  for (size_t i = 0; i < kLatencyBucketBoundCount; ++i) {
    w.U64(kLatencyBucketBoundsUs[i]);
  }
  w.EndArray();
  w.Key("buckets").BeginArray();
  for (size_t i = 0; i <= kLatencyBucketBoundCount; ++i) {
    w.U64(host.shared_stats != nullptr
              ? host.shared_stats->latency_buckets[i].load(
                    std::memory_order_relaxed)
              : 0);
  }
  w.EndArray();
  w.EndObject();
  if (host.shared_stats != nullptr) {
    trials = host.shared_stats->trials.load(std::memory_order_relaxed);
    failed = host.shared_stats->failed_trials.load(std::memory_order_relaxed);
    micros = host.shared_stats->trial_micros.load(std::memory_order_relaxed);
  }
  w.Key("trials").U64(trials);
  w.Key("failed_trials").U64(failed);
  w.Key("trial_micros_total").U64(micros);
  w.EndObject();
  StatsReplyMsg reply;
  reply.json = w.str();
  return channel.Write(ProcMsgType::kStatsReply, EncodeStatsReply(reply));
}

/// Runs a RUN_TRIAL's trials back to back, answering each in order with
/// its VERDICT. A subject-level error is answered with an ERROR, which
/// ends the batch (the engine reads no further answers to this request).
/// Fault injection happens mid-trial, after the request is accepted: the
/// engine has committed to the trial and observes a genuine mid-trial
/// death or hang. Returns an error only when the channel fails.
Status ServeBatch(FrameChannel& channel, ReplicableTarget& target,
                  const OwnedSubjectSpec& spec, const SubjectHostOptions& host,
                  const RunTrialMsg& request, uint64_t recv_us) {
  for (uint32_t k = 0; k < request.count; ++k) {
    const uint64_t trial_index = request.trial_index + k;
    // Trials after the first begin as the previous answer leaves.
    const uint64_t trial_start_us = k == 0 ? recv_us : HostNowMicros();
    if (HitsPeriod(trial_index, spec.crash_period)) std::abort();
    if (HitsPeriod(trial_index, spec.hang_period)) HangForever();
    if (host.trial_delay_us > 0) {
      // Simulated slow host (see SubjectHostOptions): charged inside the
      // trial so the engine-side deadline still covers it.
      std::this_thread::sleep_for(
          std::chrono::microseconds(host.trial_delay_us));
    }
    const uint64_t run_start_us = HostNowMicros();
    target.SeekTrial(trial_index);
    Result<TargetRunResult> result =
        target.RunIntervened(request.intervened, 1);
    const uint64_t run_end_us = HostNowMicros();
    if (result.ok() && result->logs.empty()) {
      result = Status::Internal("subject host: target produced no log");
    }
    if (host.shared_stats != nullptr) {
      host.shared_stats->RecordTrial(
          run_end_us - trial_start_us,
          !result.ok() || result->logs.front().failed);
    }
    if (!result.ok()) {
      // Subject-level error: report it and keep serving (the engine
      // decides whether to fail the discovery run).
      return channel.Write(ProcMsgType::kError, EncodeError(result.status()));
    }
    // Host-side spans, sent back only when the engine propagated span
    // context on the request: host.trial covers the whole trial (delay
    // injection included), host.subject_run just the subject's execution.
    // Times stay in this host's clock domain.
    std::vector<WireHostSpan> host_spans;
    if (request.has_span_context) {
      host_spans.push_back(
          WireHostSpan{"host.trial", trial_start_us, run_end_us});
      host_spans.push_back(
          WireHostSpan{"host.subject_run", run_start_us, run_end_us});
    }
    AID_RETURN_IF_ERROR(SendTrialAnswer(
        channel, std::move(result->logs.front()), request.has_span_context,
        trial_start_us, std::move(host_spans)));
  }
  return Status::OK();
}

}  // namespace

void SharedHostStats::RecordTrial(uint64_t micros, bool failed) {
  trials.fetch_add(1, std::memory_order_relaxed);
  if (failed) failed_trials.fetch_add(1, std::memory_order_relaxed);
  trial_micros.fetch_add(micros, std::memory_order_relaxed);
  size_t bucket = kLatencyBucketBoundCount;  // +Inf overflow
  for (size_t i = 0; i < kLatencyBucketBoundCount; ++i) {
    if (micros <= kLatencyBucketBoundsUs[i]) {
      bucket = i;
      break;
    }
  }
  latency_buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

Result<std::unique_ptr<ReplicableTarget>> BuildSubjectTarget(
    const OwnedSubjectSpec& spec) {
  switch (spec.kind) {
    case SubjectKind::kModel:
      return std::unique_ptr<ReplicableTarget>(
          std::make_unique<ModelTarget>(spec.model.get()));
    case SubjectKind::kFlakyModel:
      return std::unique_ptr<ReplicableTarget>(
          std::make_unique<FlakyModelTarget>(
              spec.model.get(), spec.manifest_probability, spec.flaky_seed));
    case SubjectKind::kCase: {
      // Callers who need the study kept alive use BuildHostSubject; this
      // entry point only serves specs whose subject is self-contained.
      return Status::InvalidArgument(
          "BuildSubjectTarget: case subjects own their program; use "
          "RunSubjectHost");
    }
    case SubjectKind::kVmProgram: {
      AID_ASSIGN_OR_RETURN(std::unique_ptr<VmTarget> target,
                           VmTarget::Create(spec.program.get(), spec.vm));
      return std::unique_ptr<ReplicableTarget>(std::move(target));
    }
  }
  return Status::InvalidArgument("BuildSubjectTarget: unknown subject kind");
}

int RunSubjectHost(FrameChannel& channel, const SubjectHostOptions& host) {
#if !AID_PROC_SUPPORTED
  (void)channel;
  (void)host;
  return 3;
#else
  HelloMsg hello;
  hello.pid = static_cast<uint64_t>(::getpid());
  if (!channel.Write(ProcMsgType::kHello, EncodeHello(hello)).ok()) {
    return 2;
  }

  // SPEC -> build -> READY (or ERROR and exit).
  OwnedSubjectSpec spec;
  HostSubject subject;
  for (;;) {
    Result<ProcFrame> frame = channel.Read();
    if (!frame.ok()) return 2;
    if (frame->type == ProcMsgType::kShutdown) return 0;
    if (frame->type == ProcMsgType::kStats) {
      // Stats connections never send a SPEC: answer and keep waiting (the
      // client follows up with SHUTDOWN or just closes).
      if (!AnswerStats(channel, host).ok()) return 2;
      continue;
    }
    if (frame->type != ProcMsgType::kSpec) {
      (void)channel.Write(
          ProcMsgType::kError,
          EncodeError(Status::InvalidArgument(
              "subject host: expected SPEC, got " +
              std::string(ProcMsgTypeName(frame->type)))));
      return 2;
    }
    Result<OwnedSubjectSpec> decoded = DecodeSubjectSpec(frame->payload);
    if (!decoded.ok()) {
      (void)channel.Write(ProcMsgType::kError, EncodeError(decoded.status()));
      return 2;
    }
    spec = std::move(decoded).value();
    Result<HostSubject> built = BuildHostSubject(spec);
    if (!built.ok()) {
      (void)channel.Write(ProcMsgType::kError, EncodeError(built.status()));
      return 2;
    }
    subject = std::move(built).value();
    ReadyMsg ready;
    ready.catalog_size = static_cast<uint32_t>(subject.catalog_size);
    if (!channel.Write(ProcMsgType::kReady, EncodeReady(ready)).ok()) {
      return 2;
    }
    break;
  }

  // Trial loop.
  for (;;) {
    Result<ProcFrame> frame = channel.Read();
    if (!frame.ok()) {
      // EOF: the engine died or dropped us; exiting is the clean response.
      return frame.status().code() == StatusCode::kAborted ? 0 : 2;
    }
    switch (frame->type) {
      case ProcMsgType::kShutdown:
        return 0;
      case ProcMsgType::kStats:
        if (!AnswerStats(channel, host).ok()) return 2;
        break;
      case ProcMsgType::kRunTrial: {
        const uint64_t recv_us = HostNowMicros();
        Result<RunTrialMsg> request = DecodeRunTrial(frame->payload);
        if (!request.ok()) {
          (void)channel.Write(ProcMsgType::kError,
                              EncodeError(request.status()));
          return 2;
        }
        if (!ServeBatch(channel, *subject.target, spec, host, *request,
                        recv_us)
                 .ok()) {
          return 2;
        }
        break;
      }
      default:
        (void)channel.Write(
            ProcMsgType::kError,
            EncodeError(Status::InvalidArgument(
                "subject host: unexpected frame " +
                std::string(ProcMsgTypeName(frame->type)))));
        return 2;
    }
  }
#endif  // AID_PROC_SUPPORTED
}

int RunSubjectHost(int in_fd, int out_fd, const SubjectHostOptions& host) {
  PipeChannel channel(in_fd, out_fd, /*owns_fds=*/false);
  return RunSubjectHost(channel, host);
}

}  // namespace aid
