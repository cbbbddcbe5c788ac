// Wire-level tests of the telemetry extensions to the subject protocol:
// the optional SPAN_CONTEXT trailing fields on RUN_TRIAL and the optional
// host-telemetry block that follows the predicate log on VERDICT. The
// extensions are additive -- with the flags off no trailing bytes are
// encoded, and a decoder fed a context-free payload reports the extension
// absent instead of failing.

#include <string>

#include <gtest/gtest.h>

#include "predicates/predicate.h"
#include "proc/wire.h"
#include "trace/serialize.h"

namespace aid {
namespace {

TEST(RunTrialWireTest, RoundTripsWithoutSpanContext) {
  RunTrialMsg msg;
  msg.trial_index = 41;
  msg.intervened = {3, 7, 11};
  const std::string payload = EncodeRunTrial(msg);

  auto decoded = DecodeRunTrial(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trial_index, 41u);
  EXPECT_EQ(decoded->intervened, msg.intervened);
  EXPECT_FALSE(decoded->has_span_context);
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->parent_span_id, 0u);
}

TEST(RunTrialWireTest, RoundTripsSpanContext) {
  RunTrialMsg msg;
  msg.trial_index = 5;
  msg.intervened = {2};
  msg.has_span_context = true;
  msg.trace_id = 0xFEEDFACE12345678ull;
  msg.parent_span_id = 99;
  const std::string payload = EncodeRunTrial(msg);

  auto decoded = DecodeRunTrial(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trial_index, 5u);
  EXPECT_EQ(decoded->intervened, msg.intervened);
  EXPECT_TRUE(decoded->has_span_context);
  EXPECT_EQ(decoded->trace_id, 0xFEEDFACE12345678ull);
  EXPECT_EQ(decoded->parent_span_id, 99u);
}

TEST(RunTrialWireTest, ContextFreeBytesMatchPreTelemetryLayout) {
  // With the flag off the context fields must not leak into the encoding,
  // whatever values they hold: the bytes are what an old build emitted.
  RunTrialMsg plain;
  plain.trial_index = 12;
  plain.intervened = {1, 2};

  RunTrialMsg with_garbage = plain;
  with_garbage.trace_id = 0xDEAD;
  with_garbage.parent_span_id = 0xBEEF;  // has_span_context still false

  EXPECT_EQ(EncodeRunTrial(plain), EncodeRunTrial(with_garbage));

  // The extension is strictly additive: the context-free payload is a
  // proper prefix of the context-carrying one.
  RunTrialMsg with_context = plain;
  with_context.has_span_context = true;
  with_context.trace_id = 1;
  with_context.parent_span_id = 2;
  const std::string longer = EncodeRunTrial(with_context);
  const std::string shorter = EncodeRunTrial(plain);
  ASSERT_LT(shorter.size(), longer.size());
  EXPECT_EQ(longer.compare(0, shorter.size(), shorter), 0);
}

/// A completed trial's log with a few observations, as a host reports it.
PredicateLog SampleLog(bool failed) {
  PredicateLog log;
  log.failed = failed;
  log.observed[4] = {10, 10};
  log.observed[0] = {1, 7};
  log.observed[9] = {-3, 12};
  return log;
}

void ExpectSameLog(const PredicateLog& a, const PredicateLog& b) {
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.outcome, b.outcome);
  ASSERT_EQ(a.observed.size(), b.observed.size());
  for (const auto& [id, obs] : a.observed) {
    ASSERT_TRUE(b.Has(id)) << id;
    EXPECT_EQ(b.observed.at(id).start, obs.start) << id;
    EXPECT_EQ(b.observed.at(id).end, obs.end) << id;
  }
}

TEST(VerdictWireTest, RoundTripsWithoutHostTelemetry) {
  VerdictMsg msg;
  msg.log = SampleLog(/*failed=*/true);
  const std::string payload = EncodeVerdict(msg);

  auto decoded = DecodeVerdict(payload, /*catalog_size=*/10);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSameLog(msg.log, decoded->log);
  EXPECT_FALSE(decoded->has_host_telemetry);
  EXPECT_TRUE(decoded->host_spans.empty());
}

TEST(VerdictWireTest, RoundTripsHostTelemetryBlockWithALog) {
  VerdictMsg msg;
  msg.log = SampleLog(/*failed=*/false);
  msg.has_host_telemetry = true;
  msg.host_recv_us = 123456789;
  msg.host_spans.push_back(WireHostSpan{"host.trial", 100, 900});
  msg.host_spans.push_back(WireHostSpan{"host.subject_run", 150, 850});
  const std::string payload = EncodeVerdict(msg);

  auto decoded = DecodeVerdict(payload, /*catalog_size=*/10);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSameLog(msg.log, decoded->log);
  ASSERT_TRUE(decoded->has_host_telemetry);
  EXPECT_EQ(decoded->host_recv_us, 123456789u);
  ASSERT_EQ(decoded->host_spans.size(), 2u);
  EXPECT_EQ(decoded->host_spans[0].name, "host.trial");
  EXPECT_EQ(decoded->host_spans[0].start_us, 100u);
  EXPECT_EQ(decoded->host_spans[0].end_us, 900u);
  EXPECT_EQ(decoded->host_spans[1].name, "host.subject_run");
  EXPECT_EQ(decoded->host_spans[1].start_us, 150u);
  EXPECT_EQ(decoded->host_spans[1].end_us, 850u);
}

TEST(VerdictWireTest, TelemetryFreeBytesCarryNoTrailer) {
  VerdictMsg plain;
  plain.log = SampleLog(/*failed=*/false);

  VerdictMsg with_garbage = plain;
  with_garbage.host_recv_us = 777;  // has_host_telemetry still false
  with_garbage.host_spans.push_back(WireHostSpan{"ignored", 1, 2});
  EXPECT_EQ(EncodeVerdict(plain), EncodeVerdict(with_garbage));

  // Without telemetry the payload is exactly the encoded log.
  WireWriter log_only;
  EncodePredicateLog(plain.log, log_only);
  EXPECT_EQ(EncodeVerdict(plain), log_only.buffer());

  VerdictMsg with_block = plain;
  with_block.has_host_telemetry = true;
  with_block.host_recv_us = 1;
  const std::string longer = EncodeVerdict(with_block);
  const std::string shorter = EncodeVerdict(plain);
  ASSERT_LT(shorter.size(), longer.size());
  EXPECT_EQ(longer.compare(0, shorter.size(), shorter), 0);
}

TEST(VerdictWireTest, EmptyHostSpanListStillRoundTrips) {
  // A host with tracing compiled out answers a SPAN_CONTEXT request with
  // the telemetry block present but empty (the recv anchor alone).
  VerdictMsg msg;
  msg.has_host_telemetry = true;
  msg.host_recv_us = 42;
  auto decoded = DecodeVerdict(EncodeVerdict(msg), /*catalog_size=*/1);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->has_host_telemetry);
  EXPECT_EQ(decoded->host_recv_us, 42u);
  EXPECT_TRUE(decoded->host_spans.empty());
  EXPECT_TRUE(decoded->log.observed.empty());
}

TEST(StatsWireTest, StatsReplyRoundTripsItsJsonDocument) {
  StatsReplyMsg msg;
  msg.json = "{\"uptime_seconds\":12,\"trials\":34}";
  auto decoded = DecodeStatsReply(EncodeStatsReply(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->json, msg.json);
}

TEST(StatsWireTest, StatsMessageTypesHaveNames) {
  EXPECT_EQ(ProcMsgTypeName(ProcMsgType::kStats), "STATS");
  EXPECT_EQ(ProcMsgTypeName(ProcMsgType::kStatsReply), "STATS_REPLY");
}

}  // namespace
}  // namespace aid
