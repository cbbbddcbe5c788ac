// Tests of the subject host's answer shape: RunSubjectHost driven on a
// thread over pipe pairs, its channel wrapped in a frame-counting
// decorator. Every trial must be answered by exactly one frame -- a VERDICT
// carrying the whole predicate log -- however many predicates the trial
// observed, and the log must equal the in-process execution's.

#include "proc/subject_host.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "proc/client.h"
#include "proc/subject_spec.h"
#include "proc/wire.h"
#include "synth/generator.h"
#include "synth/model.h"

#if AID_PROC_SUPPORTED
#include <unistd.h>
#endif

namespace aid {
namespace {

#if AID_PROC_SUPPORTED

/// FrameChannel decorator that counts the frames written through it, per
/// message type. Counters are atomic: the host writes on its own thread
/// while the test reads between trials.
class CountingChannel : public FrameChannel {
 public:
  explicit CountingChannel(FrameChannel* inner) : inner_(inner) {}

  Status Write(ProcMsgType type, std::string_view payload,
               int deadline_ms) override {
    writes_[static_cast<uint8_t>(type)].fetch_add(1);
    return inner_->Write(type, payload, deadline_ms);
  }
  Result<ProcFrame> Read(int deadline_ms) override {
    return inner_->Read(deadline_ms);
  }
  void Close() override { inner_->Close(); }
  bool open() const override { return inner_->open(); }
  std::string_view transport() const override { return inner_->transport(); }

  uint64_t writes(ProcMsgType type) const {
    return writes_[static_cast<uint8_t>(type)].load();
  }
  uint64_t total_writes() const {
    uint64_t total = 0;
    for (const auto& count : writes_) total += count.load();
    return total;
  }

 private:
  FrameChannel* inner_;
  std::atomic<uint64_t> writes_[256]{};
};

/// Two pipes, one per direction, with a PipeChannel owning each end.
struct Conversation {
  std::unique_ptr<PipeChannel> engine;
  std::unique_ptr<PipeChannel> host;

  Conversation() {
    int to_host[2];
    int to_engine[2];
    EXPECT_EQ(::pipe(to_host), 0);
    EXPECT_EQ(::pipe(to_engine), 0);
    engine = std::make_unique<PipeChannel>(to_engine[0], to_host[1],
                                           /*owns_fds=*/true);
    host = std::make_unique<PipeChannel>(to_host[0], to_engine[1],
                                         /*owns_fds=*/true);
  }
};

TEST(SubjectHostTest, AnswersEveryTrialWithExactlyOneVerdictFrame) {
  // isolated_scan's shape: one 40-thread block, ~150 predicates.
  SyntheticAppOptions options;
  options.min_threads = options.max_threads = 40;
  options.blocks_min = options.blocks_max = 1;
  options.seed = 101;
  auto model = GenerateSyntheticApp(options);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_GE((*model)->catalog().size(), 120u);

  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model->get();
  auto spec_bytes = EncodeSubjectSpec(spec);
  ASSERT_TRUE(spec_bytes.ok()) << spec_bytes.status();

  Conversation conversation;
  CountingChannel counting(conversation.host.get());
  int exit_code = -1;
  std::thread host([&]() { exit_code = RunSubjectHost(counting); });
  // On an early ASSERT return, EOF stops the host before the join.
  struct JoinOnExit {
    Conversation& conversation;
    std::thread& host;
    ~JoinOnExit() {
      conversation.engine->Close();
      if (host.joinable()) host.join();
    }
  } join_on_exit{conversation, host};

  SubjectHandshake handshake;
  handshake.timeout_ms = 10000;
  handshake.expected_catalog_size =
      static_cast<uint32_t>((*model)->catalog().size());
  auto catalog = HandshakeSubject(*conversation.engine, *spec_bytes,
                                  handshake);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  EXPECT_EQ(counting.total_writes(), 2u);  // HELLO + READY

  const GroundTruthModel& reference = **model;
  const std::vector<std::vector<PredicateId>> spans = {
      {}, {reference.root_cause()}, {reference.predicates().front()}};
  size_t largest_log = 0;
  uint64_t trial = 0;
  for (const auto& span : spans) {
    const uint64_t before = counting.total_writes();
    auto log = RunTrialOverChannel(*conversation.engine, trial++, span,
                                   *catalog, /*trial_deadline_ms=*/10000);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ(counting.total_writes() - before, 1u);

    const PredicateLog expected = reference.Execute(span);
    EXPECT_EQ(log->failed, expected.failed);
    EXPECT_TRUE(log->complete());
    ASSERT_EQ(log->observed.size(), expected.observed.size());
    for (const auto& [id, obs] : expected.observed) {
      ASSERT_TRUE(log->Has(id)) << "predicate " << id << " missing";
      EXPECT_EQ(log->observed.at(id).start, obs.start);
      EXPECT_EQ(log->observed.at(id).end, obs.end);
    }
    largest_log = std::max(largest_log, log->observed.size());
  }
  // The unintervened run observes most of the catalog: a per-observation
  // stream would have written well over a hundred frames for it.
  EXPECT_GE(largest_log, 100u);

  ASSERT_TRUE(conversation.engine->Write(ProcMsgType::kShutdown, {}).ok());
  host.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(counting.writes(ProcMsgType::kVerdict), spans.size());
  EXPECT_EQ(counting.total_writes(), 2u + spans.size());
}

#else  // !AID_PROC_SUPPORTED

TEST(SubjectHostTest, UnsupportedPlatformExitsWithoutServing) {
  PipeChannel channel(-1, -1, /*owns_fds=*/false);
  EXPECT_EQ(RunSubjectHost(channel), 3);
}

#endif  // AID_PROC_SUPPORTED

}  // namespace
}  // namespace aid
