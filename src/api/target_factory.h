// Pluggable target backends: SessionTarget and the TargetFactory registry.
//
// Part of the stable public surface under api/. A SessionTarget is one
// debuggable application: it owns the observed subject, exposes the
// InterventionTarget the engine intervenes on, and builds the AC-DAG over
// the intervenable fully-discriminative predicates. New backends register a
// creator under a name (TargetFactory::Register) and become reachable from
// SessionBuilder::WithTarget without any engine change.
//
// Built-in backends (registered on first factory use):
//
//   "vm"           VmTarget over TargetConfig::program: runs the full
//                  observation phase, statistical debugging, and fault-
//                  injection interventions (case studies, examples);
//   "model"        deterministic ModelTarget over TargetConfig::model (the
//                  paper's synthetic benchmark);
//   "flaky-model"  FlakyModelTarget over TargetConfig::model whose root
//                  cause manifests with TargetConfig::manifest_probability;
//   "case"         one of the paper's six case studies, selected by
//                  TargetConfig::case_study ("npgsql", "kafka", "cosmosdb",
//                  "network", "buildandtest", "healthtelemetry"); also
//                  registered individually as "case:<name>".

#ifndef AID_API_TARGET_FACTORY_H_
#define AID_API_TARGET_FACTORY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "causal/acdag.h"
#include "common/status.h"
#include "core/target.h"
#include "core/vm_target.h"
#include "exec/scheduler.h"
#include "net/remote_target.h"
#include "proc/subprocess_target.h"
#include "synth/model.h"

namespace aid {

/// Union of the inputs the built-in backends consume. Pointer members are
/// non-owning and must outlive the created target.
struct TargetConfig {
  /// "vm": the program under debug and its observation options.
  const Program* program = nullptr;
  VmTargetOptions vm;

  /// "model" / "flaky-model": the ground-truth model.
  const GroundTruthModel* model = nullptr;
  /// "flaky-model": per-execution probability the root cause manifests.
  double manifest_probability = 1.0;
  /// "flaky-model": seed of the manifestation coin flips.
  uint64_t flaky_seed = 1;

  /// "case": case-study key ("npgsql", "kafka", ...).
  std::string case_study;

  /// All built-in backends: replicate the intervention target across this
  /// many workers and dispatch intervention rounds in parallel (src/exec/).
  /// 1 = serial dispatch, today's behavior. Worker count never affects
  /// results (ReplicableTarget contract: bit-identical to a 1-worker run of
  /// the same dispatch mode); the engine-side switch to batched linear-scan
  /// dispatch is what changes the executions/rounds split -- see
  /// SessionBuilder::WithParallelism for the nondeterministic-target
  /// caveat. Usually set through that builder method. Validated on every
  /// factory path: values outside [1, kMaxParallelism] are rejected with
  /// InvalidArgument instead of silently degrading to serial dispatch.
  int parallelism = 1;

  /// All built-in backends, parallelism > 1 only: how the replica pool
  /// schedules each round's trials over the replicas. The default is
  /// latency-aware work stealing (exec/scheduler.h); kStatic restores the
  /// fixed contiguous sharding of earlier releases. Scheduling decides
  /// where trials run, never their bytes -- reports stay bit-identical
  /// under every policy. Usually set through SessionBuilder::WithScheduler.
  /// Validated on every factory path: out-of-range knobs are rejected with
  /// InvalidArgument.
  SchedulerOptions scheduler;

  /// All built-in backends: where the *intervention* replicas execute.
  /// kSubprocess runs each replica as a sandboxed aid_subject_host child
  /// process speaking the proc/ wire protocol -- a subject that crashes or
  /// hangs is respawned (and, with a deadline, killed) instead of taking the
  /// engine down. Observation (and so the AC-DAG) always happens in-process,
  /// where the backend needs the traces anyway. Usually set through
  /// SessionBuilder::WithProcessIsolation.
  Isolation isolation = Isolation::kInProcess;

  /// kSubprocess only: child lifecycle knobs (per-trial deadline, host
  /// binary path, respawn budget, fault injection).
  SubprocessOptions subprocess;

  /// All built-in backends: when non-empty, the *intervention* replicas run
  /// on this remote fleet of aid_runner daemons ("host:port" per entry,
  /// src/net/) instead of in this process. Replicas spread round-robin
  /// across the fleet (net::FleetTarget) and pool under parallelism like
  /// any other backend; a lost connection becomes a crashed trial plus a
  /// reconnect with endpoint failover, never an engine failure. Mutually
  /// exclusive with isolation = kSubprocess (the fleet already sandboxes
  /// each replica in a runner-side child process). Observation still
  /// happens in-process; the runner rebuilds the identical predicate
  /// catalog from the shipped spec (cross-checked at handshake). Usually
  /// set through SessionBuilder::WithRemoteFleet.
  std::vector<std::string> fleet;

  /// Fleet only: connection & trial lifecycle knobs (per-trial deadline,
  /// reconnect budget/backoff, fault injection).
  RemoteOptions remote;

  /// All built-in backends: the session's telemetry bundle (null = off).
  /// Threaded into every execution substrate the factory assembles --
  /// replica pools (chunk spans, replica EWMAs/steals), subprocess children
  /// and remote fleets (trial spans, wire latency histograms, endpoint
  /// gauges, cross-process span propagation). Observability only: never
  /// changes a report's bytes. Usually set through
  /// SessionBuilder::WithTelemetry.
  std::shared_ptr<Telemetry> telemetry;
};

/// One debuggable application: the pluggable unit behind aid::Session.
///
/// Construction (via TargetFactory or a custom creator) performs whatever
/// observation the backend needs; afterwards the target answers the
/// pipeline queries below. Implementations own their subject (program,
/// model, case study) or borrow it from the caller per their contract.
class SessionTarget {
 public:
  virtual ~SessionTarget() = default;

  /// Backend name for reports (e.g. "vm", "model", "case:kafka").
  virtual std::string_view name() const = 0;

  /// Human-readable provenance of the subject (e.g. a case study's origin);
  /// empty when the backend has none.
  virtual std::string_view description() const { return {}; }

  /// The intervention interface handed to the engine. Owned by this target.
  virtual InterventionTarget* intervention_target() = 0;

  /// Builds the AC-DAG over the intervenable fully-discriminative
  /// predicates. The target must outlive the returned DAG.
  virtual Result<AcDag> BuildAcDag() = 0;

  /// The AC-DAG the backend already holds, if any; Session borrows it
  /// instead of calling BuildAcDag (adapter targets avoid a deep copy this
  /// way). Must stay valid for the target's lifetime. Default: null.
  virtual const AcDag* prebuilt_dag() const { return nullptr; }

  /// Predicate catalog for rendering. Never null.
  virtual const PredicateCatalog* catalog() const = 0;

  /// Symbol tables for predicate descriptions (may be null).
  virtual const SymbolTable* method_names() const { return nullptr; }
  virtual const SymbolTable* object_names() const { return nullptr; }

  /// #fully-discriminative predicates statistical debugging surfaced, or -1
  /// when the backend has no SD stage (ground-truth models).
  virtual int sd_predicate_count() const { return -1; }
};

/// Registry of target backends, keyed by name.
///
/// Thread-safe. Registering an existing name replaces the creator (tests
/// override built-ins this way); the built-in backends are installed before
/// the first lookup.
class TargetFactory {
 public:
  using Creator =
      std::function<Result<std::unique_ptr<SessionTarget>>(const TargetConfig&)>;

  static void Register(std::string name, Creator creator);
  static bool IsRegistered(const std::string& name);
  /// Registered backend names, sorted.
  static std::vector<std::string> RegisteredNames();
  /// Creates a target through the registered creator; NotFound for unknown
  /// names.
  static Result<std::unique_ptr<SessionTarget>> Create(
      const std::string& name, const TargetConfig& config);
};

/// Wraps a serial, in-process VmTarget over `program` as a SessionTarget.
/// Exposed for backends that want to build on the VM observation pipeline;
/// for a substrate (parallelism, isolation, fleet, ...) fill a TargetConfig
/// and call TargetFactory::Create("vm", config).
Result<std::unique_ptr<SessionTarget>> MakeVmSessionTarget(
    const Program* program, const VmTargetOptions& options,
    std::string name = "vm");

/// Wraps a ground-truth model as a serial, in-process SessionTarget.
/// `model` must outlive the target. With `manifest_probability` < 1 the
/// intervention target is a FlakyModelTarget seeded with `flaky_seed`. For a
/// substrate, go through TargetFactory::Create("model" / "flaky-model").
Result<std::unique_ptr<SessionTarget>> MakeModelSessionTarget(
    const GroundTruthModel* model, double manifest_probability = 1.0,
    uint64_t flaky_seed = 1, std::string name = "model");

/// Adapts a borrowed InterventionTarget and prebuilt AC-DAG as a
/// SessionTarget -- the escape hatch for research setups that assemble the
/// observation pipeline by hand but still want Session to drive discovery.
/// All pointers are non-owning and must outlive the session.
std::unique_ptr<SessionTarget> MakeAdapterSessionTarget(
    InterventionTarget* target, const AcDag* dag,
    const PredicateCatalog* catalog, const SymbolTable* methods = nullptr,
    const SymbolTable* objects = nullptr, std::string name = "custom");

}  // namespace aid

#endif  // AID_API_TARGET_FACTORY_H_
