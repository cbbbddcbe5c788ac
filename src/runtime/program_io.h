// Binary serialization of whole VM programs (runtime/program.h).
//
// The process-isolation subsystem (src/proc/) runs subjects in sandboxed
// child processes; a subject backed by an arbitrary Program -- not just a
// named case study -- must therefore travel over the wire. A Program is
// plain data (methods with instruction lists, symbol tables, initial shared
// state), so the encoding is a field-for-field dump through the WireWriter
// primitives of trace/serialize.h, and deserialization reconstructs a
// Program that is observably identical: same symbol ids, same instruction
// stream, same scheduler behavior under the same seed.
//
// The encoding carries no version of its own: programs are decoded only
// inside a SubjectSpec (proc/subject_spec), whose format version covers
// them.

#ifndef AID_RUNTIME_PROGRAM_IO_H_
#define AID_RUNTIME_PROGRAM_IO_H_

#include "common/status.h"
#include "runtime/program.h"
#include "trace/serialize.h"

namespace aid {

/// Appends the binary encoding of `program` to `writer`.
void SerializeProgram(const Program& program, WireWriter& writer);

/// Decodes one program previously written by SerializeProgram. Returns
/// InvalidArgument on truncated or structurally corrupt input. The decoded
/// program passes ValidateProgram: hostile bytes that decode cleanly but
/// violate VM invariants are rejected here, not by a crash mid-execution.
Result<Program> DeserializeProgram(WireReader& reader);

/// Checks the VM's structural invariants: a valid entry method, method ids
/// matching their table index, opcodes within the instruction set, register
/// and jump-target ranges, callees with bodies, declared shared-state
/// symbols, positive costs, non-degenerate random/delay bounds, and method
/// terminators. ProgramBuilder::Build-produced programs always pass;
/// wire-received programs must be checked before they reach a Vm (the
/// runner daemons do this in their decode path).
Status ValidateProgram(const Program& program);

/// Symbol tables serialize as their name list in id order (ids are dense and
/// assigned in insertion order, so the list reconstructs the table exactly).
/// Exposed for the subject-spec codec, which ships tables of its own.
void SerializeSymbolTable(const SymbolTable& table, WireWriter& writer);
Result<SymbolTable> DeserializeSymbolTable(WireReader& reader);

}  // namespace aid

#endif  // AID_RUNTIME_PROGRAM_IO_H_
