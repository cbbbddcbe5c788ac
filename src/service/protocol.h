// The aid_service wire protocol (version 4).
//
// A discovery client and the multi-tenant service daemon (service.h) speak
// the same length-prefixed frames as the subject protocol -- [u32 length]
// [u8 type][payload], little-endian, carried by any FrameChannel -- with
// the service's message types allocated from 32 upward so they can never
// collide with the subject conversation's types (proc/wire.h, 1..12).
// ERROR frames are shared verbatim: a service-side failure arrives as the
// same structured Status the subject protocol uses.
//
// The conversation (one connection = one session):
//
//   service -> client  HELLO      service magic "AIDS", version, pid
//   client  -> service SUBMIT     label, SubjectSpec bytes, EngineOptions
//                                 bytes, checkpoint-after-rounds, optional
//                                 DiscoveryState bytes (resume)
//   service -> client  ACCEPTED   session id, resumed flag
//                   or ERROR      admission rejection (session cap, bad
//                                 spec/options/state)
//   ...                the service interleaves this session's rounds with
//                      every other live session's...
//   service -> client  REPORT     the final DiscoveryReport
//                   or CHECKPOINT serialized DiscoveryState at the round
//                                 boundary the SUBMIT asked for
//                   or ERROR      the discovery failed (target error,
//                                 session quota exceeded)
//
// A CHECKPOINT detaches the session: the service forgets it, and the
// client (or any other client, on any host running the service's subjects)
// resumes by submitting the state bytes with the same SubjectSpec. Reports
// are bit-identical to an uninterrupted solo run (SameDiscoveryOutcome and
// beyond) -- see docs/service.md.

#ifndef AID_SERVICE_PROTOCOL_H_
#define AID_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/engine.h"
#include "proc/wire.h"
#include "trace/serialize.h"

namespace aid {

inline constexpr uint32_t kServiceMagic = 0x41494453;  // "AIDS"
/// v2 = REPORT carries the SubstrateCounters block (trial_micros,
/// cancelled_chunks); v3 = SUBMIT's EngineOptions bytes (and the checkpoint
/// they sit in) drop the budgeter's advice priors and topology discount;
/// v4 = they drop the budgeter's per-trial cost EWMA smoothing option.
inline constexpr uint32_t kServiceProtocolVersion = 4;

/// Service frame types, disjoint from ProcMsgType's 1..12 so a frame can
/// never be mistaken for the subject conversation. Cast through
/// AsProcMsgType for FrameChannel I/O (scoped enums with a fixed underlying
/// type carry any value of that type).
enum class ServiceMsgType : uint8_t {
  kSubmit = 32,
  kAccepted = 33,
  kReport = 34,
  kCheckpoint = 35,
};

constexpr ProcMsgType AsProcMsgType(ServiceMsgType type) {
  return static_cast<ProcMsgType>(static_cast<uint8_t>(type));
}

/// Name for error messages; understands both service types and the shared
/// proc types (HELLO, ERROR).
std::string_view ServiceFrameName(ProcMsgType type);

/// SUBMIT: everything the service needs to run (or resume) one discovery.
struct SubmitMsg {
  /// Session label: the per-session telemetry tag ({"session", label}) and
  /// the name error messages use. Need not be unique.
  std::string label;
  /// EncodeSubjectSpec bytes: which subject to debug. On resume this must
  /// describe the same subject the checkpoint came from (the state blob
  /// carries no topology).
  std::string spec;
  /// EncodeEngineOptions bytes (core/discovery_state.h). On resume the
  /// checkpoint carries the options the discovery started with, and these
  /// bytes only shape the rebuilt target (parallelism).
  std::string engine;
  /// When > 0, the service checkpoints the session at the first action
  /// boundary with this many rounds recorded and answers CHECKPOINT
  /// instead of REPORT. 0 = run to completion.
  uint64_t checkpoint_after_rounds = 0;
  /// DiscoveryState::Serialize bytes to resume from; empty = fresh run.
  std::string state;
};

struct AcceptedMsg {
  uint64_t session_id = 0;
  bool resumed = false;
};

/// CHECKPOINT: the session's serialized state at the requested boundary,
/// plus progress numbers for operator display.
struct CheckpointMsg {
  uint64_t session_id = 0;
  uint64_t rounds = 0;
  uint64_t executions = 0;
  std::string state;
};

/// REPORT: the finished session's DiscoveryReport.
struct ReportMsg {
  uint64_t session_id = 0;
  DiscoveryReport report;
};

/// Decodes a service HELLO: HelloMsg's wire layout, but stamped with the
/// service magic (proc's DecodeHello would reject it). Distinguishes an
/// aid_service from an aid_runner at connect time.
Result<HelloMsg> DecodeServiceHello(std::string_view payload);

std::string EncodeSubmit(const SubmitMsg& msg);
Result<SubmitMsg> DecodeSubmit(std::string_view payload);
std::string EncodeAccepted(const AcceptedMsg& msg);
Result<AcceptedMsg> DecodeAccepted(std::string_view payload);
std::string EncodeCheckpoint(const CheckpointMsg& msg);
Result<CheckpointMsg> DecodeCheckpoint(std::string_view payload);
std::string EncodeReportMsg(const ReportMsg& msg);
Result<ReportMsg> DecodeReportMsg(std::string_view payload);

/// DiscoveryReport codec: every decision-bearing and accounting field the
/// engine computes (path, verdicts, rounds/executions, history, budgeting,
/// confidence).
void EncodeDiscoveryReport(const DiscoveryReport& report, WireWriter& writer);
Result<DiscoveryReport> DecodeDiscoveryReport(WireReader& reader);

}  // namespace aid

#endif  // AID_SERVICE_PROTOCOL_H_
