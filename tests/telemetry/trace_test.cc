// Tracer tests: dense span ids, parent links, per-thread lanes, open-span
// semantics, cross-clock ImportSpan re-basing (clamped into the parent so
// skew can never break nesting), and the ScopedSpan RAII wrapper's
// null-tolerance / move / idempotent-End contract.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/trace.h"

namespace aid {
namespace {

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           uint64_t id) {
  for (const SpanRecord& span : spans) {
    if (span.id == id) return &span;
  }
  return nullptr;
}

// Tracer::Spans() returns a snapshot by value; a pointer into a temporary
// snapshot dangles, so bind the snapshot first.
const SpanRecord* FindSpan(std::vector<SpanRecord>&& spans, uint64_t id) =
    delete;

TEST(TracerTest, SpanIdsAreDenseFromOne) {
  Tracer tracer;
  EXPECT_EQ(tracer.StartSpan("a"), 1u);
  EXPECT_EQ(tracer.StartSpan("b"), 2u);
  EXPECT_EQ(tracer.StartSpan("c"), 3u);
  EXPECT_EQ(tracer.span_count(), 3u);
}

TEST(TracerTest, NestingRecordsParentLinks) {
  Tracer tracer;
  const uint64_t root = tracer.StartSpan("discovery");
  const uint64_t round = tracer.StartSpan("round", root);
  const uint64_t trial = tracer.StartSpan("trial", round);
  tracer.EndSpan(trial);
  tracer.EndSpan(round);
  tracer.EndSpan(root);

  const std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(FindSpan(spans, root)->parent, 0u);
  EXPECT_EQ(FindSpan(spans, round)->parent, root);
  EXPECT_EQ(FindSpan(spans, trial)->parent, round);
  for (const SpanRecord& span : spans) {
    EXPECT_FALSE(span.imported);
    EXPECT_GE(span.end_us, span.start_us);
    EXPECT_NE(span.end_us, 0u) << span.name;
  }
}

TEST(TracerTest, OpenSpanHasZeroEnd) {
  Tracer tracer;
  const uint64_t id = tracer.StartSpan("open");
  const std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end_us, 0u);
  tracer.EndSpan(id);
  EXPECT_NE(tracer.Spans()[0].end_us, 0u);
}

TEST(TracerTest, EndSpanIsIdempotentAndTolerant) {
  Tracer tracer;
  const uint64_t id = tracer.StartSpan("once");
  tracer.EndSpan(id);
  const uint64_t end = tracer.Spans()[0].end_us;
  tracer.EndSpan(id);     // already closed: no-op
  tracer.EndSpan(0);      // invalid: no-op
  tracer.EndSpan(999);    // unknown: no-op
  EXPECT_EQ(tracer.Spans()[0].end_us, end);
  EXPECT_EQ(tracer.span_count(), 1u);
}

TEST(TracerTest, EachThreadGetsItsOwnLane) {
  Tracer tracer;
  const uint64_t main_lane = tracer.CurrentLane();
  EXPECT_EQ(tracer.CurrentLane(), main_lane);  // stable on re-query
  uint64_t other_lane = main_lane;
  std::thread worker([&] {
    other_lane = tracer.CurrentLane();
    tracer.EndSpan(tracer.StartSpan("worker-span"));
  });
  worker.join();
  EXPECT_NE(other_lane, main_lane);
  EXPECT_EQ(tracer.Spans()[0].lane, other_lane);
}

TEST(TracerTest, ImportSpanMarksImportedAndInheritsParentLane) {
  Tracer tracer;
  uint64_t lane_in_thread = 0;
  uint64_t parent = 0;
  std::thread worker([&] {
    lane_in_thread = tracer.CurrentLane();
    parent = tracer.StartSpan("trial");
    tracer.EndSpan(parent);
  });
  worker.join();

  const auto before = tracer.Spans();
  const SpanRecord* parent_span = FindSpan(before, parent);
  ASSERT_NE(parent_span, nullptr);
  const uint64_t imported = tracer.ImportSpan(
      "host.trial", parent, parent_span->start_us, parent_span->end_us);
  const auto spans = tracer.Spans();
  const SpanRecord* span = FindSpan(spans, imported);
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->imported);
  EXPECT_EQ(span->parent, parent);
  // Imported from the main thread, but rendered on the parent's lane so the
  // cross-process child sits inside its parent's track.
  EXPECT_EQ(span->lane, lane_in_thread);
}

TEST(TracerTest, ImportSpanClampsIntoParentWindow) {
  Tracer tracer;
  const uint64_t parent = tracer.StartSpan("trial");
  tracer.EndSpan(parent);
  const auto before = tracer.Spans();
  const SpanRecord* parent_span = FindSpan(before, parent);
  ASSERT_NE(parent_span, nullptr);

  // Deliberately skewed child: starts before the parent and ends after it.
  const uint64_t start =
      parent_span->start_us == 0 ? 0 : parent_span->start_us - 1;
  const uint64_t end = parent_span->end_us + 1000000;
  const uint64_t imported = tracer.ImportSpan("host.trial", parent, start, end);

  const auto spans = tracer.Spans();
  const SpanRecord* span = FindSpan(spans, imported);
  ASSERT_NE(span, nullptr);
  EXPECT_GE(span->start_us, parent_span->start_us);
  EXPECT_LE(span->end_us, parent_span->end_us);
  EXPECT_LE(span->start_us, span->end_us);
}

TEST(TracerTest, ImportSpanWithoutParentKeepsCallerTimes) {
  Tracer tracer;
  const uint64_t imported = tracer.ImportSpan("orphan", 0, 10, 20);
  const auto spans = tracer.Spans();
  const SpanRecord* span = FindSpan(spans, imported);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->start_us, 10u);
  EXPECT_EQ(span->end_us, 20u);
  EXPECT_TRUE(span->imported);
}

TEST(TracerTest, ConcurrentSpanRecordingKeepsIdsDense) {
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpans; ++i) {
        tracer.EndSpan(tracer.StartSpan("s"));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads) * kSpans);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, i + 1);
    EXPECT_NE(spans[i].end_us, 0u);
  }
}

TEST(ScopedSpanTest, EndsOnScopeExit) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "scoped");
    EXPECT_NE(span.id(), 0u);
    EXPECT_EQ(tracer.Spans()[0].end_us, 0u);
  }
  EXPECT_NE(tracer.Spans()[0].end_us, 0u);
}

TEST(ScopedSpanTest, NullTracerIsANoOp) {
  ScopedSpan span(nullptr, "nothing");
  EXPECT_EQ(span.id(), 0u);
  span.End();  // must not crash
}

TEST(ScopedSpanTest, ExplicitEndIsIdempotent) {
  Tracer tracer;
  ScopedSpan span(&tracer, "once");
  span.End();
  const uint64_t end = tracer.Spans()[0].end_us;
  span.End();
  EXPECT_EQ(tracer.Spans()[0].end_us, end);
  EXPECT_EQ(span.id(), 0u);  // End() releases the id
}

TEST(ScopedSpanTest, MoveTransfersOwnership) {
  Tracer tracer;
  ScopedSpan outer;
  {
    ScopedSpan inner(&tracer, "moved");
    outer = std::move(inner);
    EXPECT_EQ(inner.id(), 0u);  // NOLINT(bugprone-use-after-move)
  }
  // `inner` was destroyed but ownership had moved: the span is still open.
  EXPECT_EQ(tracer.Spans()[0].end_us, 0u);
  outer.End();
  EXPECT_NE(tracer.Spans()[0].end_us, 0u);
}

TEST(ScopedSpanTest, MoveAssignEndsThePreviousSpan) {
  Tracer tracer;
  ScopedSpan a(&tracer, "first");
  ScopedSpan b(&tracer, "second");
  a = std::move(b);
  // "first" must have been closed by the assignment; "second" is still open.
  const std::vector<SpanRecord> spans = tracer.Spans();
  EXPECT_NE(spans[0].end_us, 0u);
  EXPECT_EQ(spans[1].end_us, 0u);
}

}  // namespace
}  // namespace aid
