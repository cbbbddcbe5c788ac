// Byte codecs shared across the repository.
//
//   * WireWriter / WireReader: the little-endian binary primitives every
//     byte format is built from -- the proc/ wire frames, SubjectSpecs and
//     the programs they embed, predicate logs, discovery checkpoints and
//     the service protocol.
//   * TraceToTsv: an execution trace as TSV text, for golden tests and
//     inspection -- one event per line (seq, tick, thread, kind, method,
//     call_uid, object, value, has_value, spawned, locks), names resolved
//     through the program's SymbolTables.

#ifndef AID_TRACE_SERIALIZE_H_
#define AID_TRACE_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/symbol_table.h"
#include "trace/trace.h"

namespace aid {

// Integers are copied in host byte order, here and in the proc/ frame length
// prefix. A big-endian build would exchange byte-swapped frames with a
// little-endian fleet, so it must not compile.
static_assert(std::endian::native == std::endian::little,
              "the AID wire formats are little-endian and are copied in "
              "host byte order");

/// Append-only little-endian binary encoder. The buffer is a std::string so
/// encoded messages move cheaply into pipe writes and test fixtures.
class WireWriter {
 public:
  void U8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendLe(&v, sizeof(v)); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// Length-prefixed byte string (u32 length + raw bytes).
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buffer_.append(s.data(), s.size());
  }
  /// Raw bytes, no length prefix (caller frames them).
  void Raw(std::string_view s) { buffer_.append(s.data(), s.size()); }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  void AppendLe(const void* v, size_t n) {
    buffer_.append(static_cast<const char*>(v), n);
  }

  std::string buffer_;
};

/// Cursor-based decoder over a byte buffer. Reads past the end do not throw
/// or abort: they latch an InvalidArgument status, and every subsequent read
/// returns a zero value, so decoders stay linear and check status() once at
/// the end (or wherever they need a trusted value, e.g. before sizing an
/// allocation from a decoded count).
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();

  /// Reads a u32 item count and validates it against the bytes remaining,
  /// given that each item occupies at least `min_item_bytes` on the wire:
  /// a corrupt count can then never force a large reserve()/allocation --
  /// it is rejected (latched InvalidArgument, returns 0) before any sizing
  /// happens. Every repeated-group decoder should read its count this way.
  uint32_t Count(size_t min_item_bytes);

  /// True while no read has run past the end of the buffer.
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// OK when the reader is healthy AND fully consumed; trailing garbage is
  /// an error for whole-message decoders.
  Status Finish() const;

  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Take(void* out, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

/// Symbol tables needed to render a trace with human-readable names.
struct TraceSymbols {
  const SymbolTable* methods = nullptr;
  const SymbolTable* objects = nullptr;  ///< shared vars, arrays, mutexes
  const SymbolTable* exceptions = nullptr;
};

/// Renders the trace as TSV text (header line + one line per event).
std::string TraceToTsv(const ExecutionTrace& trace, const TraceSymbols& symbols);

}  // namespace aid

#endif  // AID_TRACE_SERIALIZE_H_
