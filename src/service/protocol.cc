#include "service/protocol.h"

#include <utility>

namespace aid {

namespace {

void EncodePreds(const std::vector<PredicateId>& preds, WireWriter& w) {
  w.U32(static_cast<uint32_t>(preds.size()));
  for (PredicateId id : preds) w.I32(id);
}

std::vector<PredicateId> DecodePreds(WireReader& r) {
  const uint32_t count = r.Count(sizeof(int32_t));
  std::vector<PredicateId> preds;
  preds.reserve(count);
  for (uint32_t i = 0; i < count; ++i) preds.push_back(r.I32());
  return preds;
}

}  // namespace

std::string_view ServiceFrameName(ProcMsgType type) {
  switch (static_cast<uint8_t>(type)) {
    case static_cast<uint8_t>(ServiceMsgType::kSubmit):
      return "SUBMIT";
    case static_cast<uint8_t>(ServiceMsgType::kAccepted):
      return "ACCEPTED";
    case static_cast<uint8_t>(ServiceMsgType::kReport):
      return "REPORT";
    case static_cast<uint8_t>(ServiceMsgType::kCheckpoint):
      return "CHECKPOINT";
    default:
      return ProcMsgTypeName(type);
  }
}

Result<HelloMsg> DecodeServiceHello(std::string_view payload) {
  WireReader r(payload);
  HelloMsg msg;
  msg.magic = r.U32();
  msg.version = r.U32();
  msg.pid = r.U64();
  AID_RETURN_IF_ERROR(r.Finish());
  if (msg.magic != kServiceMagic) {
    return Status::InvalidArgument(
        msg.magic == kProcMagic
            ? "service: peer speaks the subject protocol (an aid_runner?), "
              "not the aid_service protocol"
            : "service: HELLO magic mismatch (not an aid_service)");
  }
  return msg;
}

std::string EncodeSubmit(const SubmitMsg& msg) {
  WireWriter w;
  w.Str(msg.label);
  w.Str(msg.spec);
  w.Str(msg.engine);
  w.U64(msg.checkpoint_after_rounds);
  w.Str(msg.state);
  return w.Release();
}

Result<SubmitMsg> DecodeSubmit(std::string_view payload) {
  WireReader r(payload);
  SubmitMsg msg;
  msg.label = r.Str();
  msg.spec = r.Str();
  msg.engine = r.Str();
  msg.checkpoint_after_rounds = r.U64();
  msg.state = r.Str();
  AID_RETURN_IF_ERROR(r.Finish());
  return msg;
}

std::string EncodeAccepted(const AcceptedMsg& msg) {
  WireWriter w;
  w.U64(msg.session_id);
  w.U8(msg.resumed ? 1 : 0);
  return w.Release();
}

Result<AcceptedMsg> DecodeAccepted(std::string_view payload) {
  WireReader r(payload);
  AcceptedMsg msg;
  msg.session_id = r.U64();
  msg.resumed = r.U8() != 0;
  AID_RETURN_IF_ERROR(r.Finish());
  return msg;
}

std::string EncodeCheckpoint(const CheckpointMsg& msg) {
  WireWriter w;
  w.U64(msg.session_id);
  w.U64(msg.rounds);
  w.U64(msg.executions);
  w.Str(msg.state);
  return w.Release();
}

Result<CheckpointMsg> DecodeCheckpoint(std::string_view payload) {
  WireReader r(payload);
  CheckpointMsg msg;
  msg.session_id = r.U64();
  msg.rounds = r.U64();
  msg.executions = r.U64();
  msg.state = r.Str();
  AID_RETURN_IF_ERROR(r.Finish());
  return msg;
}

void EncodeDiscoveryReport(const DiscoveryReport& report, WireWriter& w) {
  EncodePreds(report.causal_path, w);
  EncodePreds(report.spurious, w);
  w.U64(report.rounds);
  w.U64(report.speculative_executions);
  report.SubstrateCounters::Encode(w);
  w.U32(static_cast<uint32_t>(report.history.size()));
  for (const InterventionRound& round : report.history) {
    EncodePreds(round.intervened, w);
    w.U8(round.failure_stopped ? 1 : 0);
    w.Str(round.phase);
  }
  w.U8(report.path_is_chain ? 1 : 0);
  w.U64(report.budgeted_trials_allocated);
  w.I64(report.budgeted_trials_saved);
  w.U64(report.budget_early_stops);
  w.U8(report.budget_exhausted ? 1 : 0);
  w.U32(static_cast<uint32_t>(report.confidence.size()));
  for (const PredicateConfidence& conf : report.confidence) {
    w.I32(conf.id);
    w.F64(conf.causal_posterior);
  }
}

Result<DiscoveryReport> DecodeDiscoveryReport(WireReader& r) {
  DiscoveryReport report;
  report.causal_path = DecodePreds(r);
  report.spurious = DecodePreds(r);
  report.rounds = r.U64();
  report.speculative_executions = r.U64();
  static_cast<SubstrateCounters&>(report) = SubstrateCounters::Decode(r);
  // Min wire size of a history round: empty preds (4) + flag (1) + empty
  // phase string (4).
  const uint32_t rounds = r.Count(9);
  report.history.reserve(rounds);
  for (uint32_t i = 0; i < rounds; ++i) {
    InterventionRound round;
    round.intervened = DecodePreds(r);
    round.failure_stopped = r.U8() != 0;
    round.phase = r.Str();
    report.history.push_back(std::move(round));
  }
  report.path_is_chain = r.U8() != 0;
  report.budgeted_trials_allocated = r.U64();
  report.budgeted_trials_saved = r.I64();
  report.budget_early_stops = r.U64();
  report.budget_exhausted = r.U8() != 0;
  const uint32_t confidences = r.Count(sizeof(int32_t) + sizeof(double));
  report.confidence.reserve(confidences);
  for (uint32_t i = 0; i < confidences; ++i) {
    PredicateConfidence conf;
    conf.id = r.I32();
    conf.causal_posterior = r.F64();
    report.confidence.push_back(conf);
  }
  if (!r.ok()) return r.status();
  return report;
}

std::string EncodeReportMsg(const ReportMsg& msg) {
  WireWriter w;
  w.U64(msg.session_id);
  EncodeDiscoveryReport(msg.report, w);
  return w.Release();
}

Result<ReportMsg> DecodeReportMsg(std::string_view payload) {
  WireReader r(payload);
  ReportMsg msg;
  msg.session_id = r.U64();
  AID_ASSIGN_OR_RETURN(msg.report, DecodeDiscoveryReport(r));
  AID_RETURN_IF_ERROR(r.Finish());
  return msg;
}

}  // namespace aid
