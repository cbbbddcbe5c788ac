// Hostile-input regression tests for the program wire codec: truncated,
// bit-flipped, and semantically corrupt program bytes must come back as a
// Status error -- never a crash -- because both runner daemons
// (aid_subject_host, aid_runner) decode attacker-reachable bytes with this
// code path before ever forking a subject. A program only ever travels
// inside a vm-program SubjectSpec, so every case here drives the codec
// through EncodeSubjectSpec/DecodeSubjectSpec, the path a runner takes.

#include "runtime/program_io.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "proc/subject_spec.h"
#include "runtime/program.h"
#include "trace/serialize.h"

namespace aid {
namespace {

// A program exercising every declared-object kind, exceptions, threads,
// randomness, and control flow, so corruptions can target each validation
// rule.
Program BuildRichProgram() {
  ProgramBuilder b;
  b.Global("g", 5);
  b.Array("arr", 4);
  b.Mutex("m");
  b.Method("Worker")
      .Lock("m")
      .LoadGlobal(0, "g")
      .AddImm(0, 0, 1)
      .StoreGlobal("g", 0)
      .Unlock("m")
      .Return();
  b.Method("Helper").LoadConst(0, 2).ArrayLoad(1, "arr", 0).Return(1);
  auto main = b.Method("Main");
  main.Spawn(0, "Worker")
      .Call(1, "Helper")
      .Random(2, 10)
      .DelayRand(1, 3)
      .ThrowIfZero(3, "Boom");
  const size_t skip = main.JumpIfZeroPlaceholder(2);
  main.LoadConst(4, 1);
  main.PatchTarget(skip);
  main.Join(0).Return();
  auto program = b.Build("Main");
  AID_CHECK(program.ok());
  return std::move(*program);
}

/// The SPEC payload carrying `program`.
std::string SpecBytes(const Program& program) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kVmProgram;
  spec.program = &program;
  auto bytes = EncodeSubjectSpec(spec);
  AID_CHECK(bytes.ok());
  return std::move(*bytes);
}

/// Where the embedded program starts in SpecBytes(program): the program is
/// the payload's tail.
size_t ProgramOffset(const Program& program) {
  WireWriter writer;
  SerializeProgram(program, writer);
  return SpecBytes(program).size() - writer.Release().size();
}

/// Decodes a SPEC payload and hands back its program.
Result<Program> DecodeProgramSpec(std::string_view bytes) {
  AID_ASSIGN_OR_RETURN(OwnedSubjectSpec spec, DecodeSubjectSpec(bytes));
  return std::move(*spec.program);
}

MethodDef& MutableMethod(Program& program, std::string_view name) {
  const SymbolId id = program.method_names().Find(name);
  return const_cast<std::vector<MethodDef>&>(
      program.methods())[static_cast<size_t>(id)];
}

TEST(ProgramIoCorruptTest, RoundTripSurvivesAndRevalidates) {
  const Program program = BuildRichProgram();
  const std::string bytes = SpecBytes(program);
  auto decoded = DecodeProgramSpec(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(ValidateProgram(*decoded).ok());
  // Decode -> re-encode is byte-identical (dense ids, ordered tables).
  EXPECT_EQ(SpecBytes(*decoded), bytes);
}

TEST(ProgramIoCorruptTest, EveryTruncationIsARejectedError) {
  const std::string bytes = SpecBytes(BuildRichProgram());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DecodeProgramSpec(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(ProgramIoCorruptTest, EveryByteFlipIsHandledWithoutCrashing) {
  // Bit-flipped bytes may decode to a different-but-valid program (e.g. a
  // flipped initial value); the contract is "error or success, no crash,
  // and whatever decodes passes validation".
  const std::string pristine = SpecBytes(BuildRichProgram());
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string bytes = pristine;
    bytes[i] = static_cast<char>(~bytes[i]);
    auto decoded = DecodeProgramSpec(bytes);
    if (decoded.ok()) {
      EXPECT_TRUE(ValidateProgram(*decoded).ok()) << "byte " << i;
    }
  }
}

TEST(ProgramIoCorruptTest, TrailingGarbageIsRejected) {
  std::string bytes = SpecBytes(BuildRichProgram());
  bytes += "extra";
  EXPECT_FALSE(DecodeProgramSpec(bytes).ok());
}

TEST(ProgramIoCorruptTest, OutOfRangeEntryIsRejected) {
  const Program program = BuildRichProgram();
  std::string bytes = SpecBytes(program);
  bytes[ProgramOffset(program)] = 0x7f;  // the entry id leads the program
  EXPECT_FALSE(DecodeProgramSpec(bytes).ok());
}

TEST(ProgramIoCorruptTest, UnknownObjectKindByteIsRejected) {
  // Hand-written program bytes after a real spec header: structurally
  // well-formed except the object kind byte, which no enum value covers.
  const Program header_source = BuildRichProgram();
  WireWriter w;
  w.Raw(std::string_view(SpecBytes(header_source))
            .substr(0, ProgramOffset(header_source)));
  w.I32(0);              // entry = Main
  w.U32(1);              // method names
  w.Str("Main");
  w.U32(1);              // object names
  w.Str("g");
  w.U32(0);              // exception names
  w.U32(1);              // one method
  w.I32(0);
  w.Str("Main");
  w.U8(0);               // side_effect_free
  w.U8(0);               // catches_exceptions
  w.I64(0);              // catch_fallback
  w.U32(1);              // one instruction: return
  w.U8(static_cast<uint8_t>(Op::kReturn));
  w.I32(kNoReg);
  w.I32(kNoReg);
  w.I32(kNoReg);
  w.I32(kInvalidSymbol);
  w.I64(0);
  w.I64(0);
  w.I64(1);              // cost
  w.U32(1);              // one object declaration
  w.U8(9);               // not a known ObjectKind
  w.I64(0);
  w.U32(0);              // mutexes
  w.I32(kInvalidSymbol); // index_out_of_range
  w.I32(kInvalidSymbol); // deadlock
  const auto decoded = DecodeProgramSpec(w.Release());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("ObjectKind"), std::string::npos);
}

// Semantic corruptions: mutate a valid in-memory program the way hostile
// bytes would present it, re-encode it in a spec, and require the decode
// path (which runs ValidateProgram) to reject it.
struct SemanticCorruption {
  const char* name;
  const char* expect_in_message;
  void (*apply)(Program&);
};

class SemanticCorruptionTest
    : public ::testing::TestWithParam<SemanticCorruption> {};

TEST_P(SemanticCorruptionTest, RejectedByDecode) {
  Program program = BuildRichProgram();
  GetParam().apply(program);
  const auto decoded = DecodeProgramSpec(SpecBytes(program));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find(GetParam().expect_in_message),
            std::string::npos)
      << decoded.status();
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, SemanticCorruptionTest,
    ::testing::Values(
        SemanticCorruption{"BadOpcode", "opcode",
                           [](Program& p) {
                             MutableMethod(p, "Main").code[0].op =
                                 static_cast<Op>(77);
                           }},
        SemanticCorruption{"BadRegister", "register",
                           [](Program& p) {
                             MutableMethod(p, "Helper").code[0].a = kNumRegs;
                           }},
        SemanticCorruption{"BadJumpTarget", "jump target",
                           [](Program& p) {
                             MutableMethod(p, "Main").code[5].imm = 1000;
                           }},
        SemanticCorruption{"UnknownCallee", "has no body",
                           [](Program& p) {
                             MutableMethod(p, "Main").code[1].imm = 50;
                           }},
        SemanticCorruption{"UndeclaredGlobal", "declared global",
                           [](Program& p) {
                             MutableMethod(p, "Worker").code[1].obj = 999;
                           }},
        SemanticCorruption{"GlobalUsedAsArray", "declared array",
                           [](Program& p) {
                             MutableMethod(p, "Helper").code[1].obj =
                                 p.object_names().Find("g");
                           }},
        SemanticCorruption{"UndeclaredMutex", "declared mutex",
                           [](Program& p) {
                             MutableMethod(p, "Worker").code[0].obj =
                                 p.object_names().Find("g");
                           }},
        SemanticCorruption{"BadExceptionSymbol", "exception symbol",
                           [](Program& p) {
                             MutableMethod(p, "Main").code[4].obj = 99;
                           }},
        SemanticCorruption{"ZeroRandomBound", "random bound",
                           [](Program& p) {
                             MutableMethod(p, "Main").code[2].imm = 0;
                           }},
        SemanticCorruption{"InvertedDelayRange", "delay range",
                           [](Program& p) {
                             auto& instr = MutableMethod(p, "Main").code[3];
                             instr.imm = 9;
                             instr.imm2 = 2;
                           }},
        SemanticCorruption{"NegativeDelayMin", "delay range",
                           [](Program& p) {
                             MutableMethod(p, "Main").code[3].imm = -1;
                           }},
        SemanticCorruption{"NonPositiveCost", "cost",
                           [](Program& p) {
                             MutableMethod(p, "Worker").code[2].cost = 0;
                           }},
        SemanticCorruption{"MissingTerminator", "return/throw/jump",
                           [](Program& p) {
                             MutableMethod(p, "Helper").code.back().op =
                                 Op::kNop;
                           }},
        SemanticCorruption{"EmptyMethod", "no body",
                           [](Program& p) {
                             MutableMethod(p, "Worker").code.clear();
                           }},
        SemanticCorruption{"MethodIdMismatch", "dense",
                           [](Program& p) {
                             MutableMethod(p, "Worker").id = 7;
                           }}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace aid
