#include "trace/serialize.h"

#include <sstream>

namespace aid {

// ------------------------------------------------------------ wire codec --

namespace {

/// Guard against corrupt lengths: no legitimate string comes close, and a
/// bogus 4-byte length must not turn into a giant allocation.
constexpr uint32_t kMaxWireCount = 1u << 28;

}  // namespace

bool WireReader::Take(void* out, size_t n) {
  if (!status_.ok() || data_.size() - pos_ < n) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument(
          "wire decode: input truncated at byte " + std::to_string(pos_) +
          " (wanted " + std::to_string(n) + " more, have " +
          std::to_string(data_.size() - pos_) + ")");
    }
    std::memset(out, 0, n);
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

uint8_t WireReader::U8() {
  uint8_t v;
  Take(&v, sizeof(v));
  return v;
}

uint32_t WireReader::U32() {
  uint32_t v;
  Take(&v, sizeof(v));
  return v;
}

uint64_t WireReader::U64() {
  uint64_t v;
  Take(&v, sizeof(v));
  return v;
}

double WireReader::F64() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint32_t WireReader::Count(size_t min_item_bytes) {
  const uint32_t n = U32();
  if (!status_.ok()) return 0;
  if (min_item_bytes > 0 && n > remaining() / min_item_bytes) {
    status_ = Status::InvalidArgument(
        "wire decode: item count " + std::to_string(n) + " needs >= " +
        std::to_string(static_cast<uint64_t>(n) * min_item_bytes) +
        " bytes but only " + std::to_string(remaining()) + " remain");
    return 0;
  }
  return n;
}

std::string WireReader::Str() {
  const uint32_t n = U32();
  if (!status_.ok()) return {};
  if (n > kMaxWireCount || n > remaining()) {
    status_ = Status::InvalidArgument(
        "wire decode: string length " + std::to_string(n) +
        " overruns the buffer (" + std::to_string(remaining()) +
        " bytes remain)");
    return {};
  }
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

Status WireReader::Finish() const {
  AID_RETURN_IF_ERROR(status_);
  if (pos_ != data_.size()) {
    return Status::InvalidArgument(
        "wire decode: " + std::to_string(data_.size() - pos_) +
        " trailing bytes after the message");
  }
  return Status::OK();
}

// ------------------------------------------------------------------- TSV --

namespace {

std::string ResolveObject(const TraceSymbols& symbols, const Event& e) {
  if (e.object == kInvalidSymbol) return "-";
  if (e.kind == EventKind::kThrow || e.kind == EventKind::kCatch) {
    return symbols.exceptions ? symbols.exceptions->Name(e.object)
                              : std::to_string(e.object);
  }
  return symbols.objects ? symbols.objects->Name(e.object)
                         : std::to_string(e.object);
}

}  // namespace

std::string TraceToTsv(const ExecutionTrace& trace,
                       const TraceSymbols& symbols) {
  std::ostringstream out;
  out << "seq\ttick\tthread\tkind\tmethod\tcall\tobject\tvalue\tspawned\tlocks\n";
  for (const Event& e : trace.events()) {
    out << e.seq << '\t' << e.tick << '\t' << e.thread << '\t'
        << EventKindName(e.kind) << '\t'
        << (symbols.methods && e.method != kInvalidSymbol
                ? symbols.methods->Name(e.method)
                : std::string("-"))
        << '\t' << e.call_uid << '\t' << ResolveObject(symbols, e) << '\t';
    if (e.has_value) {
      out << e.value;
    } else {
      out << '-';
    }
    out << '\t' << e.spawned_thread << '\t';
    for (size_t i = 0; i < e.locks_held.size(); ++i) {
      if (i > 0) out << ',';
      out << (symbols.objects ? symbols.objects->Name(e.locks_held[i])
                              : std::to_string(e.locks_held[i]));
    }
    if (e.locks_held.empty()) out << '-';
    out << '\n';
  }
  return out.str();
}

}  // namespace aid
