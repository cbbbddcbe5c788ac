#include "trace/serialize.h"

#include <gtest/gtest.h>

#include "common/symbol_table.h"
#include "trace/recorder.h"

namespace aid {
namespace {

TEST(SerializeTest, TsvContainsHeaderAndEvents) {
  SymbolTable methods;
  SymbolTable objects;
  SymbolTable exceptions;
  const SymbolId foo = methods.Intern("Foo");
  const SymbolId x = objects.Intern("x");

  TraceRecorder recorder;
  const CallUid uid = recorder.MethodEnter(0, foo, 1);
  recorder.Access(0, foo, uid, x, true, 9, 2);
  recorder.MethodExit(0, foo, uid, 3, true, 9);
  ExecutionTrace trace = recorder.Finish(false, {}, 4, 1);

  TraceSymbols symbols{&methods, &objects, &exceptions};
  const std::string tsv = TraceToTsv(trace, symbols);
  EXPECT_NE(tsv.find("seq\ttick\tthread"), std::string::npos);
  EXPECT_NE(tsv.find("Foo"), std::string::npos);
  EXPECT_NE(tsv.find("write"), std::string::npos);
  EXPECT_NE(tsv.find("x"), std::string::npos);
  // 1 header + 3 events.
  int lines = 0;
  for (char c : tsv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
}

TEST(WireReaderTest, LatchesTruncationAndReportsOffset) {
  WireWriter writer;
  writer.U32(7);
  WireReader reader(writer.buffer());
  EXPECT_EQ(reader.U32(), 7u);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.U64(), 0u);  // past the end: zero value, latched error
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  // Subsequent reads stay zero and do not clear the error.
  EXPECT_EQ(reader.U8(), 0u);
  EXPECT_FALSE(reader.Finish().ok());
}

TEST(WireReaderTest, StringLengthBeyondBufferIsRejected) {
  WireWriter writer;
  writer.U32(1000);  // claims a 1000-byte string
  writer.Raw("abc");
  WireReader reader(writer.buffer());
  EXPECT_EQ(reader.Str(), "");
  EXPECT_FALSE(reader.ok());
}

TEST(WireReaderTest, PrimitivesRoundTrip) {
  WireWriter writer;
  writer.U8(0xAB);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFull);
  writer.I32(-12345);
  writer.I64(-9876543210);
  writer.F64(0.25);
  writer.Str("hello \0 world");  // embedded NUL via string_view would cut;
                                 // literal decays at the first NUL -- fine.
  WireReader reader(writer.buffer());
  EXPECT_EQ(reader.U8(), 0xAB);
  EXPECT_EQ(reader.U32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.I32(), -12345);
  EXPECT_EQ(reader.I64(), -9876543210);
  EXPECT_EQ(reader.F64(), 0.25);
  EXPECT_EQ(reader.Str(), "hello ");
  EXPECT_TRUE(reader.Finish().ok());
}

}  // namespace
}  // namespace aid
