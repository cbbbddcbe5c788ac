// Hostile-input regression tests for the SubjectSpec codec: a runner daemon
// decodes SPEC frames from the network, so corrupted or malicious payloads
// must produce a structured Status error, never a crash or an
// out-of-catalog predicate id reaching GroundTruthModel::Execute.

#include "proc/subject_spec.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "runtime/program.h"
#include "synth/model.h"
#include "trace/serialize.h"

namespace aid {
namespace {

std::unique_ptr<GroundTruthModel> MakeModel() {
  auto model = std::make_unique<GroundTruthModel>();
  const PredicateId a = model->AddPredicate(0);
  const PredicateId b = model->AddPredicate(1);
  const PredicateId c = model->AddPredicate(2);
  const PredicateId f = model->AddFailure();
  model->SetCausalChain({a, b});
  model->SetTrueParents(c, {a});
  model->AddTemporalEdge(a, c);
  model->AddTemporalEdge(c, f);
  return model;
}

Program MakeProgram() {
  ProgramBuilder b;
  b.Global("g", 1);
  b.Method("Main").LoadGlobal(0, "g").Return(0);
  auto program = b.Build("Main");
  AID_CHECK(program.ok());
  return std::move(*program);
}

std::string EncodeModelSpec() {
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  auto model = MakeModel();
  spec.model = model.get();
  auto encoded = EncodeSubjectSpec(spec);
  AID_CHECK(encoded.ok());
  return std::move(*encoded);
}

// --- round trips ----------------------------------------------------------

TEST(SubjectSpecTest, ModelRoundTripKeepsStructure) {
  auto model = MakeModel();
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model.get();
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok()) << encoded.status();

  auto decoded = DecodeSubjectSpec(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_NE(decoded->model, nullptr);
  EXPECT_EQ(decoded->model->temporal_edges(), model->temporal_edges());
  EXPECT_EQ(decoded->model->true_parents(), model->true_parents());
  EXPECT_EQ(decoded->model->causal_chain(), model->causal_chain());
  EXPECT_EQ(decoded->model->failure(), model->failure());
}

TEST(SubjectSpecTest, VmProgramRoundTripKeepsTargetOptions) {
  const Program program = MakeProgram();
  SubjectSpec spec;
  spec.kind = SubjectKind::kVmProgram;
  spec.program = &program;
  spec.vm.first_seed = 17;
  spec.vm.min_failures = 12;
  spec.vm.extraction.durations = false;
  spec.vm.extraction.duration_slack = 4;
  spec.vm.vm.stop_on_failure = false;
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok()) << encoded.status();

  auto decoded = DecodeSubjectSpec(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->vm.first_seed, 17u);
  EXPECT_EQ(decoded->vm.min_failures, 12);
  EXPECT_FALSE(decoded->vm.extraction.durations);
  EXPECT_EQ(decoded->vm.extraction.duration_slack, 4);
  EXPECT_FALSE(decoded->vm.vm.stop_on_failure);
  ASSERT_NE(decoded->program, nullptr);
  EXPECT_EQ(decoded->program->methods().size(), program.methods().size());
}

// --- structural corruption ------------------------------------------------

TEST(SubjectSpecCorruptTest, EveryModelSpecTruncationIsRejected) {
  const std::string bytes = EncodeModelSpec();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DecodeSubjectSpec(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(SubjectSpecCorruptTest, EveryVmSpecTruncationIsRejected) {
  const Program program = MakeProgram();
  SubjectSpec spec;
  spec.kind = SubjectKind::kVmProgram;
  spec.program = &program;
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok());
  for (size_t len = 0; len < encoded->size(); ++len) {
    auto decoded =
        DecodeSubjectSpec(std::string_view(*encoded).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(SubjectSpecCorruptTest, TrailingGarbageIsRejected) {
  std::string bytes = EncodeModelSpec();
  bytes += '\x01';
  EXPECT_FALSE(DecodeSubjectSpec(bytes).ok());
}

TEST(SubjectSpecCorruptTest, WrongVersionIsRejected) {
  // 1: the initial format; 2: the format with model dependence edges and
  // VM analysis flags; 3: the format whose embedded program carried its own
  // version.
  for (const char version : {'\x01', '\x02', '\x03'}) {
    std::string bytes = EncodeModelSpec();
    bytes[0] = version;
    const auto decoded = DecodeSubjectSpec(bytes);
    ASSERT_FALSE(decoded.ok()) << int{version};
    EXPECT_NE(decoded.status().message().find(
                  "version " + std::to_string(int{version})),
              std::string::npos)
        << decoded.status();
  }
}

TEST(SubjectSpecCorruptTest, UnknownSubjectKindIsRejected) {
  WireWriter w;
  w.U32(4);   // format version
  w.U8(9);    // no such SubjectKind
  w.U64(0);   // crash_period
  w.U64(0);   // hang_period
  const auto decoded = DecodeSubjectSpec(w.Release());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("kind"), std::string::npos);
}

// --- hostile model payloads -----------------------------------------------

// Writes the spec envelope for a kModel subject; the caller appends the
// model payload (mirroring SerializeModel's layout) with hostile ids.
void WriteModelSpecHeader(WireWriter& w) {
  w.U32(4);    // format version
  w.U8(0);     // SubjectKind::kModel
  w.U64(0);    // crash_period
  w.U64(0);    // hang_period
  w.F64(1.0);  // manifest_probability
  w.U64(1);    // flaky_seed
}

// Minimal healthy prefix: failure id 0 plus one real predicate (id 1).
void WriteTwoPredicateCatalog(WireWriter& w) {
  w.I32(0);  // failure id
  w.U32(1);  // one non-failure predicate
  w.I32(1);  // id
  w.I32(0);  // display index
}

void ExpectRejected(WireWriter& w, std::string_view message_fragment) {
  const auto decoded = DecodeSubjectSpec(w.Release());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find(message_fragment),
            std::string::npos)
      << decoded.status();
}

TEST(SubjectSpecCorruptTest, ChainIdOutsideCatalogIsRejected) {
  WireWriter w;
  WriteModelSpecHeader(w);
  WriteTwoPredicateCatalog(w);
  w.U32(1);   // chain of one...
  w.I32(7);   // ...naming a predicate that does not exist
  w.U32(0);   // rules
  w.U32(0);   // temporal edges
  ExpectRejected(w, "causal chain");
}

TEST(SubjectSpecCorruptTest, RuleIdOutsideCatalogIsRejected) {
  WireWriter w;
  WriteModelSpecHeader(w);
  WriteTwoPredicateCatalog(w);
  w.U32(0);   // chain
  w.U32(1);   // one rule
  w.I32(9);   // hostile rule id
  w.U32(1);   // one parent
  w.I32(0);
  w.U32(0);   // temporal edges
  ExpectRejected(w, "true-cause rule");
}

TEST(SubjectSpecCorruptTest, RuleParentOutsideCatalogIsRejected) {
  WireWriter w;
  WriteModelSpecHeader(w);
  WriteTwoPredicateCatalog(w);
  w.U32(0);   // chain
  w.U32(1);   // one rule
  w.I32(1);   // valid rule id
  w.U32(1);   // one parent
  w.I32(-4);  // hostile parent id
  w.U32(0);   // temporal edges
  ExpectRejected(w, "true-cause parent");
}

TEST(SubjectSpecCorruptTest, TemporalEdgeOutsideCatalogIsRejected) {
  WireWriter w;
  WriteModelSpecHeader(w);
  WriteTwoPredicateCatalog(w);
  w.U32(0);   // chain
  w.U32(0);   // rules
  w.U32(1);   // one temporal edge
  w.I32(0);
  w.I32(9);   // hostile endpoint
  ExpectRejected(w, "temporal edge");
}

TEST(SubjectSpecCorruptTest, NonDensePredicateIdsAreRejected) {
  WireWriter w;
  WriteModelSpecHeader(w);
  w.I32(-1);  // no failure
  w.U32(1);   // one predicate...
  w.I32(5);   // ...with a gappy id
  w.I32(0);
  w.U32(0);   // chain
  w.U32(0);   // rules
  w.U32(0);   // temporal edges
  ExpectRejected(w, "dense");
}

TEST(SubjectSpecCorruptTest, MalformedEmbeddedProgramIsRejected) {
  // A vm-program spec whose embedded program fails ValidateProgram (jump
  // out of range) must be rejected by the decode path -- this is the exact
  // frame a hostile client would send a runner daemon.
  Program program = MakeProgram();
  const SymbolId main_id = program.method_names().Find("Main");
  const_cast<std::vector<MethodDef>&>(
      program.methods())[static_cast<size_t>(main_id)]
      .code[0] = Instr{.op = Op::kJump, .imm = 1000};
  SubjectSpec spec;
  spec.kind = SubjectKind::kVmProgram;
  spec.program = &program;
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  const auto decoded = DecodeSubjectSpec(*encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("jump target"),
            std::string::npos);
}

}  // namespace
}  // namespace aid
