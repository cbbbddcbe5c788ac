// VM-level intervention actions: the fault-injection vocabulary.
//
// These are the concrete mechanisms of the paper's Figure 2 (column 3) --
// what an LFI-style injector would do to the binary, expressed as hooks the
// VM consults during execution:
//
//   predicate "data race on X between M1, M2"  -> SerializeMethods (lock)
//   predicate "method M fails"                 -> CatchExceptions (try/catch)
//   predicate "M runs too fast"                -> DelayBeforeReturn
//   predicate "M runs too slow"                -> PrematureReturn
//   predicate "M returns incorrect value"      -> ForceReturnValue
//   predicate "A must precede B" (order bug)   -> EnforceOrder
//
// The mapping from *predicates* to these actions lives in aid::inject; this
// header keeps the runtime free of predicate knowledge.

#ifndef AID_RUNTIME_INTERVENTION_H_
#define AID_RUNTIME_INTERVENTION_H_

#include <string>
#include <vector>

#include "common/symbol_table.h"
#include "trace/event.h"

namespace aid {

/// Matches all dynamic executions of a method when occurrence == 0,
/// otherwise exactly the k-th execution (1-based, in enter order).
inline constexpr int kAllOccurrences = 0;

/// Reserved (negative) symbol ids for mutexes created by interventions, so
/// plans need not mutate the program's symbol tables.
inline SymbolId InterventionMutexId(int k) { return -2 - k; }

enum class VmActionKind : uint8_t {
  /// Acquire `mutex` on entry to either method, release on exit: puts locks
  /// around the racing segments, serializing them.
  kSerializeMethods,
  /// Wrap the matched method execution in a try/catch returning `value`.
  kCatchExceptions,
  /// Sleep `ticks` immediately before the matched method returns.
  kDelayBeforeReturn,
  /// Sleep `ticks` immediately after the matched method is entered.
  kDelayAtEnter,
  /// Skip the method body; sleep `ticks` (the successful-execution duration)
  /// and return `value` (the correct value from successful executions).
  kPrematureReturn,
  /// Execute the body but return `value` instead of the computed result.
  kForceReturnValue,
  /// Block entry of (method, occurrence) until (method2, occurrence2) has
  /// exited: enforces the successful-execution order of two events.
  kEnforceOrder,
  /// If the matched method would return the same value `method2` last
  /// returned, return that value + 1 instead (repairs id collisions).
  kForceReturnDistinct,
};

/// One injection. Fields beyond (kind, method, occurrence) are per-kind.
struct VmAction {
  VmActionKind kind = VmActionKind::kDelayAtEnter;
  SymbolId method = kInvalidSymbol;
  int occurrence = kAllOccurrences;
  /// kSerializeMethods: the second racing method. kEnforceOrder: the method
  /// whose exit must happen first.
  SymbolId method2 = kInvalidSymbol;
  int occurrence2 = kAllOccurrences;
  /// kSerializeMethods: dedicated intervention mutex symbol.
  SymbolId mutex = kInvalidSymbol;
  int64_t value = 0;    ///< forced return / catch fallback
  bool has_value = false;
  Tick ticks = 0;       ///< delay amount / premature-return duration
};

/// The set of injections applied to one VM run. Plans are cheap to copy.
class InterventionPlan {
 public:
  InterventionPlan() = default;

  void Add(VmAction action) { actions_.push_back(action); }
  const std::vector<VmAction>& actions() const { return actions_; }
  bool empty() const { return actions_.empty(); }
  size_t size() const { return actions_.size(); }

  /// All actions of `kind` that match the given dynamic method execution.
  /// (Linear scan: plans hold a handful of actions.)
  template <typename Fn>
  void ForEachMatching(VmActionKind kind, SymbolId method, int occurrence,
                       Fn&& fn) const {
    for (const VmAction& action : actions_) {
      if (action.kind != kind) continue;
      if (action.kind == VmActionKind::kSerializeMethods) {
        // Serialization matches either of the two racing methods.
        const bool m1 = action.method == method &&
                        (action.occurrence == kAllOccurrences ||
                         action.occurrence == occurrence);
        const bool m2 = action.method2 == method &&
                        (action.occurrence2 == kAllOccurrences ||
                         action.occurrence2 == occurrence);
        if (m1 || m2) fn(action);
        continue;
      }
      if (action.method != method) continue;
      if (action.occurrence != kAllOccurrences &&
          action.occurrence != occurrence) {
        continue;
      }
      fn(action);
    }
  }

 private:
  std::vector<VmAction> actions_;
};

}  // namespace aid

#endif  // AID_RUNTIME_INTERVENTION_H_
