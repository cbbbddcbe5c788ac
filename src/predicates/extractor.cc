#include "predicates/extractor.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace aid {
namespace {

/// Registers one observed predicate instance into the log, interning it if a
/// catalog is provided. If the same predicate was already observed in this
/// run (e.g. two executions of a loop body are both slow and occurrence
/// indexing is off), the earliest instance is kept, matching the intuition
/// that the first manifestation is the potential cause.
void Register(const Predicate& pred, PredicateObservation obs,
              const PredicateCatalog& frozen, PredicateCatalog* intern_into,
              PredicateLog* log) {
  PredicateId id;
  if (intern_into != nullptr) {
    id = intern_into->Intern(pred);
  } else {
    id = frozen.Find(pred);
    if (id == kInvalidPredicate) return;
  }
  if (!log->observed.Has(id)) {
    log->observed[id] = obs;
    return;
  }
  PredicateObservation& kept = log->observed[id];
  if (obs.start < kept.start) kept = obs;
}

}  // namespace

Status PredicateExtractor::Observe(const std::vector<ExecutionTrace>& traces) {
  if (observed_) {
    return Status::FailedPrecondition("Observe() may only be called once");
  }
  int successes = 0;
  int failures = 0;
  for (const auto& trace : traces) {
    trace.failed() ? ++failures : ++successes;
  }
  if (successes == 0 || failures == 0) {
    return Status::InvalidArgument(
        StrFormat("need both successful and failed runs (got %d/%d)",
                  successes, failures));
  }

  // Pass 1: baselines from the successful executions.
  for (const auto& trace : traces) {
    if (trace.failed()) continue;
    AID_ASSIGN_OR_RETURN(std::vector<MethodExecution> execs,
                         trace.BuildMethodExecutions());
    for (const MethodExecution& exec : execs) {
      MethodBaseline& base = baselines_[exec.method];
      const Tick duration = exec.duration();
      if (base.executions == 0) {
        base.min_duration = duration;
        base.max_duration = duration;
        if (exec.has_return_value && !exec.threw) {
          base.consistent_return = exec.return_value;
        }
      } else {
        base.min_duration = std::min(base.min_duration, duration);
        base.max_duration = std::max(base.max_duration, duration);
        if (!exec.has_return_value || exec.threw ||
            (base.consistent_return.has_value() &&
             *base.consistent_return != exec.return_value)) {
          base.consistent_return.reset();
        }
      }
      ++base.executions;
    }
  }

  // The failure predicate is always part of the catalog.
  failure_predicate_ = catalog_.Intern(Predicate{.kind = PredKind::kFailure});

  // Pass 2: extract and intern predicates from every run.
  logs_.reserve(traces.size());
  for (const auto& trace : traces) {
    PredicateLog log;
    AID_RETURN_IF_ERROR(ExtractInto(trace, &catalog_, &log));
    logs_.push_back(std::move(log));
  }
  observed_ = true;
  return Status::OK();
}

Result<PredicateLog> PredicateExtractor::Evaluate(
    const ExecutionTrace& trace) const {
  if (!observed_) {
    return Status::FailedPrecondition("Evaluate() requires Observe() first");
  }
  PredicateLog log;
  AID_RETURN_IF_ERROR(ExtractInto(trace, nullptr, &log));
  return log;
}

Status PredicateExtractor::ExtractInto(const ExecutionTrace& trace,
                                       PredicateCatalog* intern_into,
                                       PredicateLog* log) const {
  log->failed = trace.failed();
  AID_ASSIGN_OR_RETURN(std::vector<MethodExecution> execs,
                       trace.BuildMethodExecutions());

  // Per-execution predicates: durations, returns, failures.
  for (const MethodExecution& exec : execs) {
    const int occurrence = options_.per_occurrence ? exec.occurrence : 0;
    if (options_.method_failures && exec.threw) {
      // A method has "failed" once the exception leaves it (its abnormal
      // exit); a contained exception is stamped where it was raised. This
      // orders MethodFails predicates along the unwind chain.
      const Tick when =
          exec.exception_escaped ? exec.exit_tick : exec.throw_tick;
      Register(Predicate{.kind = PredKind::kMethodFails,
                         .m1 = exec.method,
                         .occurrence = occurrence},
               {when, when}, catalog_, intern_into, log);
    }
    auto base_it = baselines_.find(exec.method);
    if (base_it == baselines_.end()) continue;
    const MethodBaseline& base = base_it->second;
    if (options_.durations) {
      const Tick duration = exec.duration();
      if (duration > base.max_duration + options_.duration_slack) {
        // "Too slow" becomes definite the moment the execution outlives the
        // slowest successful run -- not at its (much later) exit. Stamping
        // the onset keeps the predicate temporally *before* its downstream
        // effects (e.g. an event that fires mid-execution because the
        // method is still running), so the AC-DAG edge points the causal
        // way (Section 4, Case 1).
        const Tick definite_at =
            exec.enter_tick + base.max_duration + options_.duration_slack;
        Register(Predicate{.kind = PredKind::kTooSlow,
                           .m1 = exec.method,
                           .occurrence = occurrence},
                 {exec.enter_tick, definite_at}, catalog_, intern_into, log);
      } else if (duration + options_.duration_slack < base.min_duration) {
        Register(Predicate{.kind = PredKind::kTooFast,
                           .m1 = exec.method,
                           .occurrence = occurrence},
                 {exec.enter_tick, exec.exit_tick}, catalog_, intern_into, log);
      }
    }
    if (options_.wrong_returns && exec.has_return_value && !exec.threw &&
        base.consistent_return.has_value() &&
        exec.return_value != *base.consistent_return) {
      Register(Predicate{.kind = PredKind::kWrongReturn,
                         .m1 = exec.method,
                         .occurrence = occurrence,
                         .expected = *base.consistent_return},
               {exec.exit_tick, exec.exit_tick}, catalog_, intern_into, log);
    }
  }

  // Data races: concurrent, lock-disjoint accesses to the same object from
  // different threads, at least one a write, inside temporally overlapping
  // method executions (the paper's Figure 2 extraction condition).
  if (options_.data_races) {
    std::unordered_map<CallUid, const MethodExecution*> by_uid;
    for (const MethodExecution& exec : execs) by_uid[exec.call_uid] = &exec;
    std::map<SymbolId, std::vector<const Event*>> accesses;
    for (const Event& e : trace.events()) {
      if (e.kind == EventKind::kRead || e.kind == EventKind::kWrite) {
        accesses[e.object].push_back(&e);
      }
    }
    auto disjoint = [](const std::vector<SymbolId>& a,
                       const std::vector<SymbolId>& b) {
      for (SymbolId x : a) {
        if (std::find(b.begin(), b.end(), x) != b.end()) return false;
      }
      return true;
    };
    for (const auto& [object, events] : accesses) {
      for (size_t i = 0; i < events.size(); ++i) {
        for (size_t j = i + 1; j < events.size(); ++j) {
          const Event& a = *events[i];
          const Event& b = *events[j];
          if (a.thread == b.thread) continue;
          if (a.kind != EventKind::kWrite && b.kind != EventKind::kWrite) {
            continue;
          }
          if (!disjoint(a.locks_held, b.locks_held)) continue;
          auto ita = by_uid.find(a.call_uid);
          auto itb = by_uid.find(b.call_uid);
          if (ita == by_uid.end() || itb == by_uid.end()) continue;
          if (!ita->second->Overlaps(*itb->second)) continue;
          SymbolId m1 = ita->second->method;
          SymbolId m2 = itb->second->method;
          if (m1 > m2) std::swap(m1, m2);
          Register(Predicate{.kind = PredKind::kDataRace,
                             .m1 = m1,
                             .m2 = m2,
                             .obj = object},
                   {std::min(a.tick, b.tick), std::max(a.tick, b.tick)},
                   catalog_, intern_into, log);
        }
      }
    }
  }

  // Atomicity violations: a conflicting access from another thread lands
  // strictly between two consecutive accesses of one method execution (the
  // intruder breaks the interval the method implicitly assumed atomic).
  // Accesses conflict when they touch the same object and at least one is a
  // write. This is the crisp single-predicate form the paper's reference
  // predicate design uses for the dominant class of concurrency bugs.
  if (options_.atomicity_violations) {
    std::unordered_map<CallUid, const MethodExecution*> by_uid;
    for (const MethodExecution& exec : execs) by_uid[exec.call_uid] = &exec;
    std::vector<const Event*> all_accesses;
    for (const Event& e : trace.events()) {
      if (e.kind == EventKind::kRead || e.kind == EventKind::kWrite) {
        all_accesses.push_back(&e);
      }
    }
    for (const MethodExecution& exec : execs) {
      for (size_t k = 0; k + 1 < exec.access_events.size(); ++k) {
        const Event& first = trace.events()[exec.access_events[k]];
        const Event& second = trace.events()[exec.access_events[k + 1]];
        for (const Event* intruder : all_accesses) {
          if (intruder->thread == exec.thread) continue;
          if (intruder->tick <= first.tick || intruder->tick >= second.tick) {
            continue;
          }
          // Conflict with either endpoint of the atomic section.
          const bool conflicts =
              (intruder->object == first.object &&
               (intruder->kind == EventKind::kWrite ||
                first.kind == EventKind::kWrite)) ||
              (intruder->object == second.object &&
               (intruder->kind == EventKind::kWrite ||
                second.kind == EventKind::kWrite));
          if (!conflicts) continue;
          auto it = by_uid.find(intruder->call_uid);
          if (it == by_uid.end()) continue;
          Register(Predicate{.kind = PredKind::kAtomicityViolation,
                             .m1 = exec.method,
                             .m2 = it->second->method,
                             .obj = intruder->object},
                   {intruder->tick, intruder->tick}, catalog_, intern_into,
                   log);
        }
      }
    }
  }

  // Order inversions and return-value collisions range over the *first*
  // executions of method pairs.
  if (options_.order_inversions || options_.return_equals) {
    std::map<SymbolId, const MethodExecution*> first_exec;
    for (const MethodExecution& exec : execs) {
      auto [it, inserted] = first_exec.emplace(exec.method, &exec);
      if (!inserted && exec.enter_seq < it->second->enter_seq) {
        it->second = &exec;
      }
    }
    for (auto ita = first_exec.begin(); ita != first_exec.end(); ++ita) {
      for (auto itb = first_exec.begin(); itb != first_exec.end(); ++itb) {
        if (ita == itb) continue;
        const MethodExecution& a = *ita->second;
        const MethodExecution& b = *itb->second;
        // "a started before b finished" -- only meaningful cross-thread and
        // only recorded in the inverted direction (a after b is the common
        // case when b waits for a).
        if (options_.order_inversions && a.thread != b.thread &&
            a.enter_tick < b.exit_tick && a.enter_tick > b.enter_tick) {
          Register(Predicate{.kind = PredKind::kOrder,
                             .m1 = a.method,
                             .m2 = b.method},
                   {a.enter_tick, a.enter_tick}, catalog_, intern_into, log);
        }
        if (options_.return_equals && ita->first < itb->first &&
            a.has_return_value && b.has_return_value && !a.threw && !b.threw &&
            a.return_value == b.return_value) {
          const Tick when = std::max(a.exit_tick, b.exit_tick);
          Register(Predicate{.kind = PredKind::kReturnEquals,
                             .m1 = a.method,
                             .m2 = b.method},
                   {when, when}, catalog_, intern_into, log);
        }
      }
    }
  }

  // The failure predicate F.
  if (trace.failed()) {
    Register(Predicate{.kind = PredKind::kFailure},
             {trace.end_tick(), trace.end_tick()}, catalog_, intern_into, log);
  }

  // Compound predicates: conjunction observed iff both members are.
  for (const auto& [a, b] : compounds_) {
    auto ia = log->observed.find(a);
    auto ib = log->observed.find(b);
    if (ia == log->observed.end() || ib == log->observed.end()) continue;
    const Predicate compound{
        .kind = PredKind::kCompound, .sub1 = a, .sub2 = b};
    Register(compound,
             {std::min(ia->second.start, ib->second.start),
              std::max(ia->second.end, ib->second.end)},
             catalog_, intern_into, log);
  }
  return Status::OK();
}

Result<PredicateId> PredicateExtractor::AddCompound(PredicateId a,
                                                    PredicateId b) {
  if (!observed_) {
    return Status::FailedPrecondition("AddCompound() requires Observe() first");
  }
  if (a == b || a < 0 || b < 0 ||
      static_cast<size_t>(a) >= catalog_.size() ||
      static_cast<size_t>(b) >= catalog_.size()) {
    return Status::InvalidArgument("invalid compound members");
  }
  const PredicateId id = catalog_.Intern(
      Predicate{.kind = PredKind::kCompound, .sub1 = a, .sub2 = b});
  compounds_.emplace_back(a, b);
  for (PredicateLog& log : logs_) {
    auto ia = log.observed.find(a);
    auto ib = log.observed.find(b);
    if (ia == log.observed.end() || ib == log.observed.end()) continue;
    // Computed before operator[], whose insert may move the entries.
    const PredicateObservation window{
        std::min(ia->second.start, ib->second.start),
        std::max(ia->second.end, ib->second.end)};
    log.observed[id] = window;
  }
  return id;
}

}  // namespace aid
