#include "runtime/program_io.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/strings.h"

namespace aid {
namespace {

void SerializeInstr(const Instr& instr, WireWriter& writer) {
  writer.U8(static_cast<uint8_t>(instr.op));
  writer.I32(instr.a);
  writer.I32(instr.b);
  writer.I32(instr.c);
  writer.I32(instr.obj);
  writer.I64(instr.imm);
  writer.I64(instr.imm2);
  writer.I64(instr.cost);
}

Instr DeserializeInstr(WireReader& reader) {
  Instr instr;
  instr.op = static_cast<Op>(reader.U8());
  instr.a = reader.I32();
  instr.b = reader.I32();
  instr.c = reader.I32();
  instr.obj = reader.I32();
  instr.imm = reader.I64();
  instr.imm2 = reader.I64();
  instr.cost = reader.I64();
  return instr;
}

}  // namespace

void SerializeSymbolTable(const SymbolTable& table, WireWriter& writer) {
  writer.U32(static_cast<uint32_t>(table.size()));
  for (size_t id = 0; id < table.size(); ++id) {
    writer.Str(table.Name(static_cast<SymbolId>(id)));
  }
}

Result<SymbolTable> DeserializeSymbolTable(WireReader& reader) {
  // Each entry carries at least its u32 length prefix.
  const uint32_t count = reader.Count(4);
  AID_RETURN_IF_ERROR(reader.status());
  SymbolTable table;
  for (uint32_t i = 0; i < count; ++i) {
    const std::string name = reader.Str();
    AID_RETURN_IF_ERROR(reader.status());
    const SymbolId id = table.Intern(name);
    if (id != static_cast<SymbolId>(i)) {
      return Status::InvalidArgument(
          "symbol table decode: duplicate name '" + name +
          "' breaks dense id assignment");
    }
  }
  return table;
}

/// Full private access to Program (friend declared in program.h).
struct ProgramSerde {
  static void Serialize(const Program& program, WireWriter& writer) {
    writer.I32(program.entry_);
    SerializeSymbolTable(program.method_names_, writer);
    SerializeSymbolTable(program.object_names_, writer);
    SerializeSymbolTable(program.exception_names_, writer);

    writer.U32(static_cast<uint32_t>(program.methods_.size()));
    for (const MethodDef& method : program.methods_) {
      writer.I32(method.id);
      writer.Str(method.name);
      writer.U8(method.side_effect_free ? 1 : 0);
      writer.U8(method.catches_exceptions ? 1 : 0);
      writer.I64(method.catch_fallback);
      writer.U32(static_cast<uint32_t>(method.code.size()));
      for (const Instr& instr : method.code) SerializeInstr(instr, writer);
    }

    // Shared-state declarations, keyed by object symbol. Maps are emitted in
    // symbol-id order so equal programs serialize to equal bytes.
    const size_t object_count = program.object_names_.size();
    writer.U32(static_cast<uint32_t>(object_count));
    for (size_t id = 0; id < object_count; ++id) {
      const SymbolId symbol = static_cast<SymbolId>(id);
      writer.U8(static_cast<uint8_t>(program.object_kinds_.at(symbol)));
      int64_t initial = 0;
      if (auto it = program.globals_.find(symbol); it != program.globals_.end()) {
        initial = it->second;
      } else if (auto at = program.arrays_.find(symbol);
                 at != program.arrays_.end()) {
        initial = at->second;
      }
      writer.I64(initial);
    }
    writer.U32(static_cast<uint32_t>(program.mutexes_.size()));
    for (SymbolId mutex : program.mutexes_) writer.I32(mutex);
    writer.I32(program.index_out_of_range_);
    writer.I32(program.deadlock_);
  }

  static Result<Program> Deserialize(WireReader& reader) {
    Program program;
    program.entry_ = reader.I32();
    AID_ASSIGN_OR_RETURN(program.method_names_,
                         DeserializeSymbolTable(reader));
    AID_ASSIGN_OR_RETURN(program.object_names_,
                         DeserializeSymbolTable(reader));
    AID_ASSIGN_OR_RETURN(program.exception_names_,
                         DeserializeSymbolTable(reader));

    // Fixed per-method header: id + name length + flags + fallback + count.
    const uint32_t method_count = reader.Count(22);
    AID_RETURN_IF_ERROR(reader.status());
    program.methods_.reserve(method_count);
    for (uint32_t i = 0; i < method_count; ++i) {
      MethodDef method;
      method.id = reader.I32();
      method.name = reader.Str();
      method.side_effect_free = reader.U8() != 0;
      method.catches_exceptions = reader.U8() != 0;
      method.catch_fallback = reader.I64();
      // Each serialized Instr occupies exactly 41 bytes.
      const uint32_t code_len = reader.Count(41);
      AID_RETURN_IF_ERROR(reader.status());
      method.code.reserve(code_len);
      for (uint32_t j = 0; j < code_len; ++j) {
        method.code.push_back(DeserializeInstr(reader));
      }
      AID_RETURN_IF_ERROR(reader.status());
      program.methods_.push_back(std::move(method));
    }

    const uint32_t object_count = reader.U32();
    AID_RETURN_IF_ERROR(reader.status());
    if (object_count != program.object_names_.size()) {
      return Status::InvalidArgument(
          "program decode: object declaration count " +
          std::to_string(object_count) + " != object table size " +
          std::to_string(program.object_names_.size()));
    }
    for (uint32_t id = 0; id < object_count; ++id) {
      const SymbolId symbol = static_cast<SymbolId>(id);
      const uint8_t kind_byte = reader.U8();
      const int64_t initial = reader.I64();
      if (reader.ok() && kind_byte > static_cast<uint8_t>(ObjectKind::kMutex)) {
        return Status::InvalidArgument(
            "program decode: object kind byte " + std::to_string(kind_byte) +
            " is not a known ObjectKind");
      }
      const ObjectKind kind = static_cast<ObjectKind>(kind_byte);
      program.object_kinds_[symbol] = kind;
      switch (kind) {
        case ObjectKind::kGlobal:
          program.globals_[symbol] = initial;
          break;
        case ObjectKind::kArray:
          program.arrays_[symbol] = initial;
          break;
        case ObjectKind::kMutex:
          break;
      }
    }
    const uint32_t mutex_count = reader.Count(sizeof(SymbolId));
    AID_RETURN_IF_ERROR(reader.status());
    program.mutexes_.reserve(mutex_count);
    for (uint32_t i = 0; i < mutex_count; ++i) {
      program.mutexes_.push_back(reader.I32());
    }
    program.index_out_of_range_ = reader.I32();
    program.deadlock_ = reader.I32();
    AID_RETURN_IF_ERROR(reader.status());
    return program;
  }
};

Status ValidateProgram(const Program& program) {
  const auto& methods = program.methods();
  if (program.entry() < 0 ||
      static_cast<size_t>(program.entry()) >= methods.size()) {
    return Status::InvalidArgument(
        StrFormat("program: entry method id %d out of range (have %zu "
                  "methods)",
                  program.entry(), methods.size()));
  }
  const size_t exception_count = program.exception_names().size();
  for (size_t m = 0; m < methods.size(); ++m) {
    const MethodDef& method = methods[m];
    if (method.id != static_cast<SymbolId>(m)) {
      return Status::InvalidArgument(
          StrFormat("program: method '%s' at index %zu carries id %d (ids "
                    "must be dense table indexes)",
                    method.name.c_str(), m, method.id));
    }
    if (method.code.empty()) {
      return Status::InvalidArgument(StrFormat(
          "program: method '%s' has no body", method.name.c_str()));
    }
    for (size_t pc = 0; pc < method.code.size(); ++pc) {
      const Instr& instr = method.code[pc];
      auto fail = [&](const std::string& what) {
        return Status::InvalidArgument(
            StrFormat("program: method '%s' pc %zu: %s",
                      method.name.c_str(), pc, what.c_str()));
      };
      if (static_cast<uint8_t>(instr.op) > static_cast<uint8_t>(Op::kReturn)) {
        return fail(StrFormat("opcode byte %u outside the instruction set",
                              static_cast<unsigned>(instr.op)));
      }
      auto check_reg = [&](Reg r, bool allow_none) -> Status {
        if (r == kNoReg && allow_none) return Status::OK();
        if (r < 0 || r >= kNumRegs) {
          return fail(StrFormat("register %d out of range", r));
        }
        return Status::OK();
      };
      auto check_declared = [&](const char* kind, bool declared) -> Status {
        if (!declared) {
          return fail(StrFormat("object symbol %d is not a declared %s",
                                instr.obj, kind));
        }
        return Status::OK();
      };
      switch (instr.op) {
        case Op::kJump:
        case Op::kJumpIfZero:
        case Op::kJumpIfNonZero:
          if (instr.imm < 0 ||
              static_cast<size_t>(instr.imm) >= method.code.size()) {
            return fail(StrFormat("jump target %lld out of range",
                                  static_cast<long long>(instr.imm)));
          }
          if (instr.op != Op::kJump) {
            AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          }
          break;
        case Op::kCall:
        case Op::kSpawn: {
          const auto callee = static_cast<uint64_t>(instr.imm);
          if (instr.imm < 0 || callee >= methods.size() ||
              methods[callee].code.empty()) {
            return fail(StrFormat("callee %lld has no body",
                                  static_cast<long long>(instr.imm)));
          }
          AID_RETURN_IF_ERROR(check_reg(instr.a, true));
          break;
        }
        case Op::kReturn:
          AID_RETURN_IF_ERROR(check_reg(instr.a, true));
          break;
        case Op::kLoadGlobal:
          AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          AID_RETURN_IF_ERROR(check_declared(
              "global", program.globals().count(instr.obj) > 0));
          break;
        case Op::kStoreGlobal:
          AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          AID_RETURN_IF_ERROR(check_declared(
              "global", program.globals().count(instr.obj) > 0));
          break;
        case Op::kArrayLen:
        case Op::kArrayLoad:
        case Op::kArrayStore:
        case Op::kArrayResize:
          AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          if (instr.op == Op::kArrayLoad || instr.op == Op::kArrayStore) {
            AID_RETURN_IF_ERROR(check_reg(instr.b, false));
          }
          AID_RETURN_IF_ERROR(check_declared(
              "array", program.arrays().count(instr.obj) > 0));
          break;
        case Op::kLock:
        case Op::kUnlock:
          AID_RETURN_IF_ERROR(check_declared(
              "mutex", std::find(program.mutexes().begin(),
                                 program.mutexes().end(),
                                 instr.obj) != program.mutexes().end()));
          break;
        case Op::kThrow:
        case Op::kThrowIfZero:
        case Op::kThrowIfNonZero:
          if (instr.op != Op::kThrow) {
            AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          }
          if (instr.obj < 0 ||
              static_cast<size_t>(instr.obj) >= exception_count) {
            return fail(StrFormat("exception symbol %d out of range",
                                  instr.obj));
          }
          break;
        case Op::kRandom:
          AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          // Uniform(0) divides by zero.
          if (instr.imm < 1) {
            return fail(StrFormat("random bound %lld must be positive",
                                  static_cast<long long>(instr.imm)));
          }
          break;
        case Op::kDelayRand:
          if (instr.imm < 0 || instr.imm2 < instr.imm) {
            return fail(StrFormat(
                "delay range [%lld, %lld] is invalid",
                static_cast<long long>(instr.imm),
                static_cast<long long>(instr.imm2)));
          }
          break;
        case Op::kNop:
        case Op::kDelay:
          break;
        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
        case Op::kCmpEq:
        case Op::kCmpLt:
          AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          AID_RETURN_IF_ERROR(check_reg(instr.b, false));
          AID_RETURN_IF_ERROR(check_reg(instr.c, false));
          break;
        case Op::kAddImm:
          AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          AID_RETURN_IF_ERROR(check_reg(instr.b, false));
          break;
        case Op::kLoadConst:
        case Op::kJoin:
          AID_RETURN_IF_ERROR(check_reg(instr.a, false));
          break;
      }
      if (instr.cost < 1) {
        return fail("non-positive cost");
      }
    }
    const Op last = method.code.back().op;
    if (last != Op::kReturn && last != Op::kThrow && last != Op::kJump) {
      return Status::InvalidArgument(
          StrFormat("program: method '%s' must end with return/throw/jump",
                    method.name.c_str()));
    }
  }
  return Status::OK();
}

void SerializeProgram(const Program& program, WireWriter& writer) {
  ProgramSerde::Serialize(program, writer);
}

Result<Program> DeserializeProgram(WireReader& reader) {
  AID_ASSIGN_OR_RETURN(Program program, ProgramSerde::Deserialize(reader));
  AID_RETURN_IF_ERROR(ValidateProgram(program));
  return program;
}

}  // namespace aid
