// Predicate model.
//
// A predicate is a boolean statement about one execution of the application
// ("there is a data race between M1 and M2 on X", "method M runs too slow").
// Predicates are interned in a PredicateCatalog, giving them dense ids used
// by every later stage (SD filtering, AC-DAG, intervention engine).
//
// Loop executions: the k-th dynamic execution of a method is distinguished
// through the `occurrence` field (paper Appendix A); occurrence 0 means
// "any execution".

#ifndef AID_PREDICATES_PREDICATE_H_
#define AID_PREDICATES_PREDICATE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "trace/event.h"

namespace aid {

class WireReader;  // trace/serialize.h
class WireWriter;

using PredicateId = int32_t;
inline constexpr PredicateId kInvalidPredicate = -1;

enum class PredKind : uint8_t {
  kDataRace,      ///< m1 and m2 access obj concurrently, one write, no lock
  kAtomicityViolation,  ///< m2 intrudes between two of m1's accesses (obj)
  kMethodFails,   ///< m1 throws an exception
  kTooSlow,       ///< m1's duration exceeds the max successful duration
  kTooFast,       ///< m1's duration is below the min successful duration
  kWrongReturn,   ///< m1 returns a value != the consistent successful value
  kOrder,         ///< m1 starts before m2 has finished (inverted order)
  kReturnEquals,  ///< m1 and m2 return the same value (e.g. id collision)
  kCompound,      ///< conjunction of two predicates (sub1 && sub2)
  kSynthetic,     ///< abstract predicate of a synthetic ground-truth app
  kFailure,       ///< the failure-indicating predicate F
};

std::string_view PredKindName(PredKind kind);

/// An immutable predicate description. Value-semantics; hashable.
struct Predicate {
  PredKind kind = PredKind::kFailure;
  SymbolId m1 = kInvalidSymbol;
  SymbolId m2 = kInvalidSymbol;
  SymbolId obj = kInvalidSymbol;
  /// 1-based dynamic occurrence of m1; 0 = any occurrence.
  int occurrence = 0;
  /// kWrongReturn: the consistent successful return value.
  int64_t expected = 0;
  /// kCompound: member predicate ids. (kSynthetic reuses `occurrence` as its
  /// node index.)
  PredicateId sub1 = kInvalidPredicate;
  PredicateId sub2 = kInvalidPredicate;

  bool operator==(const Predicate&) const = default;
};

struct PredicateHash {
  size_t operator()(const Predicate& p) const {
    size_t h = static_cast<size_t>(p.kind);
    auto mix = [&h](uint64_t v) {
      h ^= std::hash<uint64_t>()(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<uint64_t>(p.m1));
    mix(static_cast<uint64_t>(p.m2));
    mix(static_cast<uint64_t>(p.obj));
    mix(static_cast<uint64_t>(p.occurrence));
    mix(static_cast<uint64_t>(p.expected));
    mix(static_cast<uint64_t>(p.sub1));
    mix(static_cast<uint64_t>(p.sub2));
    return h;
  }
};

/// When a predicate was observed within one run. Point predicates have
/// start == end; interval predicates span their relevant window.
struct PredicateObservation {
  Tick start = 0;
  Tick end = 0;

  bool operator==(const PredicateObservation&) const = default;
};

/// The observations of one execution, keyed by (non-negative) predicate id:
/// an id-indexed occurrence bitset for O(1) Has() plus the (id, window)
/// entries in a flat array sorted by id. The surface is map-like: find/end,
/// at, operator[], erase, size/empty, and iteration as (id, observation)
/// pairs in id order. Inserting an id above every present id appends; an
/// out-of-order insert (only the trace extractor does that) shifts the tail.
/// A producer that has a whole execution's entries at once hands them over
/// with AssignSorted.
/// Iterators expose the id mutably for structured bindings; callers must not
/// change it.
class ObservationSet {
 public:
  using value_type = std::pair<PredicateId, PredicateObservation>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  bool Has(PredicateId id) const {
    if (id < 0) return false;
    const size_t word = static_cast<size_t>(id) >> 6;
    return word < bits_.size() && ((bits_[word] >> (id & 63)) & 1) != 0;
  }

  iterator find(PredicateId id) { return Has(id) ? LowerBound(id) : end(); }
  const_iterator find(PredicateId id) const {
    return Has(id) ? LowerBound(id) : end();
  }
  /// The observation of a present id (checked).
  const PredicateObservation& at(PredicateId id) const;
  /// The observation of `id`, inserting a zero window if absent.
  PredicateObservation& operator[](PredicateId id) {
    if (entries_.empty() || id > entries_.back().first) {
      SetBit(id);
      return entries_.emplace_back(id, PredicateObservation{}).second;
    }
    return InsertSorted(id);
  }
  /// Replaces the contents with `entries`, whose ids must be non-negative
  /// and strictly increasing (checked), and sets the occurrence bits in one
  /// sweep. The result equals inserting each entry with operator[].
  void AssignSorted(std::vector<value_type> entries);
  /// Removes `id`; returns the number of entries removed (0 or 1).
  size_t erase(PredicateId id);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Room for `n` entries and, ids being dense, for ids below `n`.
  void reserve(size_t n) {
    entries_.reserve(n);
    bits_.reserve((n + 63) / 64);
  }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  bool operator==(const ObservationSet& other) const {
    return entries_ == other.entries_;
  }

 private:
  iterator LowerBound(PredicateId id);
  const_iterator LowerBound(PredicateId id) const;
  void SetBit(PredicateId id) {
    // A negative id wraps to a huge word index and lands in GrowFor, which
    // rejects it.
    const size_t word = static_cast<size_t>(id) >> 6;
    if (word >= bits_.size()) GrowFor(id);
    bits_[word] |= uint64_t{1} << (id & 63);
  }
  void GrowFor(PredicateId id);
  PredicateObservation& InsertSorted(PredicateId id);

  std::vector<uint64_t> bits_;
  std::vector<value_type> entries_;
};

/// How one trial execution ended. In-process targets always complete;
/// process-isolated targets (src/proc/) additionally report subject crashes
/// and per-trial deadline kills. Only the engine side classifies a trial as
/// crashed or timed out, and such a trial carries an *empty* observation
/// set: a subject host answers with its whole log in one frame after the
/// subject finished, so nothing of a dying trial ever arrives. Consumers
/// that reason counterfactually about absence (Definition 2 pruning) must
/// skip non-completed logs, while the failed flag stays trustworthy (a
/// subject that crashed or hung did fail).
enum class TrialOutcome : uint8_t {
  kCompleted = 0,
  kCrashed = 1,   ///< the subject process died mid-trial
  kTimedOut = 2,  ///< the trial hit its deadline and was killed
};

std::string_view TrialOutcomeName(TrialOutcome outcome);

/// The predicate values of one execution: which predicates were observed
/// (with their time windows) and whether the execution failed. This is the
/// paper's "predicate log".
struct PredicateLog {
  bool failed = false;
  TrialOutcome outcome = TrialOutcome::kCompleted;
  ObservationSet observed;

  bool Has(PredicateId id) const { return observed.Has(id); }
  /// True iff the log is a complete observation of its execution (see
  /// TrialOutcome): only complete logs admit absence-based reasoning.
  bool complete() const { return outcome == TrialOutcome::kCompleted; }
};

/// The one binary encoding of a PredicateLog, shared by discovery-state
/// checkpoints and the subject wire protocol's VERDICT frame:
///
///   u8 failed, u8 outcome, u32 n, then (i32 id, i64 start, i64 end) x n
///
/// with the observations in id order (ObservationSet's own order), so equal
/// logs encode to equal bytes.
void EncodePredicateLog(const PredicateLog& log, WireWriter& writer);

/// Decodes one log written by EncodePredicateLog. Fails with
/// InvalidArgument on truncated input, an unknown outcome byte, or ids that
/// are negative, not strictly increasing, or at least `catalog_size`. The
/// occurrence bitset is sized by the largest id, so decoders of untrusted
/// bytes (the VERDICT frame, checkpoints) pass their catalog's size; the
/// default leaves ids unbounded.
Result<PredicateLog> DecodePredicateLog(
    WireReader& reader,
    uint32_t catalog_size = std::numeric_limits<uint32_t>::max());

/// Interning table: Predicate <-> dense PredicateId.
class PredicateCatalog {
 public:
  /// Interns `pred`, returning its id (stable across calls).
  PredicateId Intern(const Predicate& pred) {
    auto it = ids_.find(pred);
    if (it != ids_.end()) return it->second;
    const PredicateId id = static_cast<PredicateId>(predicates_.size());
    predicates_.push_back(pred);
    ids_.emplace(pred, id);
    return id;
  }

  /// Lookup without interning; kInvalidPredicate if absent.
  PredicateId Find(const Predicate& pred) const {
    auto it = ids_.find(pred);
    return it == ids_.end() ? kInvalidPredicate : it->second;
  }

  const Predicate& Get(PredicateId id) const {
    return predicates_[static_cast<size_t>(id)];
  }

  size_t size() const { return predicates_.size(); }

  /// Human-readable description, resolving names through the tables
  /// (either may be null, falling back to raw ids).
  std::string Describe(PredicateId id, const SymbolTable* methods,
                       const SymbolTable* objects) const;

 private:
  std::vector<Predicate> predicates_;
  std::unordered_map<Predicate, PredicateId, PredicateHash> ids_;
};

}  // namespace aid

#endif  // AID_PREDICATES_PREDICATE_H_
