#include "predicates/predicate.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "trace/serialize.h"

namespace aid {
namespace {

std::string MethodName(const SymbolTable* methods, SymbolId id) {
  if (id == kInvalidSymbol) return "?";
  if (methods == nullptr) return StrFormat("m%d", id);
  return methods->Name(id);
}

std::string ObjectName(const SymbolTable* objects, SymbolId id) {
  if (id == kInvalidSymbol) return "?";
  if (objects == nullptr) return StrFormat("o%d", id);
  return objects->Name(id);
}

}  // namespace

std::string_view PredKindName(PredKind kind) {
  switch (kind) {
    case PredKind::kDataRace:
      return "DataRace";
    case PredKind::kAtomicityViolation:
      return "AtomicityViolation";
    case PredKind::kMethodFails:
      return "MethodFails";
    case PredKind::kTooSlow:
      return "TooSlow";
    case PredKind::kTooFast:
      return "TooFast";
    case PredKind::kWrongReturn:
      return "WrongReturn";
    case PredKind::kOrder:
      return "OrderInversion";
    case PredKind::kReturnEquals:
      return "ReturnEquals";
    case PredKind::kCompound:
      return "Compound";
    case PredKind::kSynthetic:
      return "Synthetic";
    case PredKind::kFailure:
      return "Failure";
  }
  return "Unknown";
}

std::string_view TrialOutcomeName(TrialOutcome outcome) {
  switch (outcome) {
    case TrialOutcome::kCompleted:
      return "completed";
    case TrialOutcome::kCrashed:
      return "crashed";
    case TrialOutcome::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

const PredicateObservation& ObservationSet::at(PredicateId id) const {
  AID_CHECK(Has(id));
  return LowerBound(id)->second;
}

void ObservationSet::AssignSorted(std::vector<value_type> entries) {
  bits_.clear();
  if (!entries.empty()) {
    const PredicateId last = entries.back().first;
    AID_CHECK(last >= 0);
    bits_.resize((static_cast<size_t>(last) >> 6) + 1, 0);
    // The current word is built in a register and stored when the ids move
    // past it. Checking against `last` too keeps an unsorted id from
    // indexing past the bitset before the order check catches it.
    PredicateId previous = kInvalidPredicate;
    size_t word = 0;
    uint64_t bits = 0;
    for (const value_type& entry : entries) {
      const PredicateId id = entry.first;
      AID_CHECK(previous < id && id <= last);
      previous = id;
      if (static_cast<size_t>(id) >> 6 != word) {
        bits_[word] = bits;
        word = static_cast<size_t>(id) >> 6;
        bits = 0;
      }
      bits |= uint64_t{1} << (id & 63);
    }
    bits_[word] = bits;
  }
  entries_ = std::move(entries);
}

size_t ObservationSet::erase(PredicateId id) {
  if (!Has(id)) return 0;
  bits_[static_cast<size_t>(id) >> 6] &= ~(uint64_t{1} << (id & 63));
  entries_.erase(LowerBound(id));
  return 1;
}

ObservationSet::iterator ObservationSet::LowerBound(PredicateId id) {
  return std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const value_type& entry, PredicateId key) { return entry.first < key; });
}

ObservationSet::const_iterator ObservationSet::LowerBound(
    PredicateId id) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const value_type& entry, PredicateId key) { return entry.first < key; });
}

void ObservationSet::GrowFor(PredicateId id) {
  AID_CHECK(id >= 0);
  bits_.resize((static_cast<size_t>(id) >> 6) + 1, 0);
}

PredicateObservation& ObservationSet::InsertSorted(PredicateId id) {
  const iterator it = LowerBound(id);
  if (it != entries_.end() && it->first == id) return it->second;
  SetBit(id);
  return entries_.emplace(it, id, PredicateObservation{})->second;
}

void EncodePredicateLog(const PredicateLog& log, WireWriter& writer) {
  writer.U8(log.failed ? 1 : 0);
  writer.U8(static_cast<uint8_t>(log.outcome));
  writer.U32(static_cast<uint32_t>(log.observed.size()));
  for (const auto& [id, o] : log.observed) {
    writer.I32(id);
    writer.I64(o.start);
    writer.I64(o.end);
  }
}

Result<PredicateLog> DecodePredicateLog(WireReader& reader,
                                        uint32_t catalog_size) {
  PredicateLog log;
  log.failed = reader.U8() != 0;
  const uint8_t outcome = reader.U8();
  const uint32_t n = reader.Count(sizeof(int32_t) + 2 * sizeof(int64_t));
  AID_RETURN_IF_ERROR(reader.status());
  if (outcome > static_cast<uint8_t>(TrialOutcome::kTimedOut)) {
    return Status::InvalidArgument("predicate log: unknown trial outcome " +
                                   std::to_string(outcome));
  }
  log.outcome = static_cast<TrialOutcome>(outcome);
  log.observed.reserve(n);
  PredicateId previous = kInvalidPredicate;
  for (uint32_t i = 0; i < n; ++i) {
    const PredicateId id = reader.I32();
    PredicateObservation o;
    o.start = reader.I64();
    o.end = reader.I64();
    if (id < 0) {
      return Status::InvalidArgument("predicate log: negative predicate id " +
                                     std::to_string(id));
    }
    if (id <= previous) {
      return Status::InvalidArgument(
          "predicate log: predicate ids not strictly increasing (" +
          std::to_string(id) + " after " + std::to_string(previous) + ")");
    }
    if (static_cast<uint32_t>(id) >= catalog_size) {
      return Status::InvalidArgument(
          "predicate log: predicate id " + std::to_string(id) +
          " outside the catalog of " + std::to_string(catalog_size));
    }
    previous = id;
    log.observed[id] = o;  // ids strictly increase: an append
  }
  AID_RETURN_IF_ERROR(reader.status());
  return log;
}

std::string PredicateCatalog::Describe(PredicateId id,
                                       const SymbolTable* methods,
                                       const SymbolTable* objects) const {
  const Predicate& p = Get(id);
  const std::string occ =
      p.occurrence > 0 ? StrFormat("#%d", p.occurrence) : std::string();
  switch (p.kind) {
    case PredKind::kDataRace:
      return StrFormat("data race between %s and %s on %s",
                       MethodName(methods, p.m1).c_str(),
                       MethodName(methods, p.m2).c_str(),
                       ObjectName(objects, p.obj).c_str());
    case PredKind::kAtomicityViolation:
      return StrFormat("%s interleaves %s's atomic section on %s",
                       MethodName(methods, p.m2).c_str(),
                       MethodName(methods, p.m1).c_str(),
                       ObjectName(objects, p.obj).c_str());
    case PredKind::kMethodFails:
      return StrFormat("%s%s throws an exception",
                       MethodName(methods, p.m1).c_str(), occ.c_str());
    case PredKind::kTooSlow:
      return StrFormat("%s%s runs too slow", MethodName(methods, p.m1).c_str(),
                       occ.c_str());
    case PredKind::kTooFast:
      return StrFormat("%s%s runs too fast", MethodName(methods, p.m1).c_str(),
                       occ.c_str());
    case PredKind::kWrongReturn:
      return StrFormat("%s%s returns incorrect value (expected %lld)",
                       MethodName(methods, p.m1).c_str(), occ.c_str(),
                       static_cast<long long>(p.expected));
    case PredKind::kOrder:
      return StrFormat("%s starts before %s finishes",
                       MethodName(methods, p.m1).c_str(),
                       MethodName(methods, p.m2).c_str());
    case PredKind::kReturnEquals:
      return StrFormat("%s and %s return the same value",
                       MethodName(methods, p.m1).c_str(),
                       MethodName(methods, p.m2).c_str());
    case PredKind::kCompound:
      return StrFormat("(%s) and (%s)",
                       Describe(p.sub1, methods, objects).c_str(),
                       Describe(p.sub2, methods, objects).c_str());
    case PredKind::kSynthetic:
      return StrFormat("P%d", p.occurrence);
    case PredKind::kFailure:
      return "FAILURE";
  }
  return "unknown predicate";
}

}  // namespace aid
