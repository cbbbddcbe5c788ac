#include "api/target_factory.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "casestudies/case_study.h"
#include "exec/parallel_target.h"
#include "net/fleet_target.h"
#include "sd/statistical_debugger.h"
#include "synth/flaky_target.h"
#include "telemetry/telemetry.h"

namespace aid {
namespace {

/// Validates the substrate knobs of `config` before a backend does any
/// work: parallelism, scheduler, and the one composition rule -- subprocess
/// sandboxing and a remote fleet are both "replicas live in their own
/// process", so stacking them is a configuration error, not a feature.
Status ValidateSubstrate(const TargetConfig& config) {
  AID_RETURN_IF_ERROR(ValidateParallelism(config.parallelism));
  AID_RETURN_IF_ERROR(ValidateSchedulerOptions(config.scheduler));
  if (!config.fleet.empty() && config.isolation == Isolation::kSubprocess) {
    return Status::InvalidArgument(
        "target config: a remote fleet and subprocess isolation are "
        "mutually exclusive (the fleet already sandboxes every replica in "
        "a runner-side child process)");
  }
  return Status::OK();
}

/// The intervention side of every built-in backend: the in-process target,
/// replaced by a sandboxed subject process or a remote fleet when the config
/// asks for one, and pooled into a ParallelTarget when parallelism > 1.
/// Declare it after every member it borrows: the pool must die first.
class SubstrateStack {
 public:
  /// Stacks the substrate `config` describes over `local` (borrowed).
  /// Out-of-process replicas rebuild the subject from `spec` and must
  /// report `catalog_size` predicates at handshake. `config` must have
  /// passed ValidateSubstrate.
  Status Assemble(ReplicableTarget* local, const SubjectSpec& spec,
                  uint32_t catalog_size, const TargetConfig& config) {
    serial_ = local;
    if (!config.fleet.empty()) {
      AID_ASSIGN_OR_RETURN(std::vector<Endpoint> endpoints,
                           ParseEndpoints(config.fleet));
      RemoteOptions opts = config.remote;
      opts.expected_catalog_size = catalog_size;
      opts.telemetry = config.telemetry;
      AID_ASSIGN_OR_RETURN(
          isolated_, FleetTarget::Create(std::move(endpoints), spec, opts));
    } else if (config.isolation == Isolation::kSubprocess) {
      SubprocessOptions opts = config.subprocess;
      opts.expected_catalog_size = catalog_size;
      opts.telemetry = config.telemetry;
      AID_ASSIGN_OR_RETURN(isolated_, SubprocessTarget::Create(spec, opts));
    }
    if (isolated_ != nullptr) serial_ = isolated_.get();
    if (config.parallelism > 1) {
      AID_ASSIGN_OR_RETURN(
          parallel_, ParallelTarget::Create(serial_, config.parallelism,
                                            config.scheduler,
                                            config.telemetry.get()));
    }
    // Keep the bundle alive as long as the substrates that record into it
    // (the session usually shares it too).
    telemetry_ = config.telemetry;
    return Status::OK();
  }

  InterventionTarget* top() {
    if (parallel_ != nullptr) return parallel_.get();
    return serial_;
  }

 private:
  /// The serial intervention backend: isolated_ when set, else the local
  /// target.
  ReplicableTarget* serial_ = nullptr;
  /// Subprocess child or remote fleet; null for in-process interventions.
  std::unique_ptr<ReplicableTarget> isolated_;
  std::shared_ptr<Telemetry> telemetry_;
  /// Replica pool over serial_; set iff parallelism > 1. Declared last: it
  /// borrows serial_, so it must die first.
  std::unique_ptr<ParallelTarget> parallel_;
};

/// A VmTarget plus the statistical-debugging stage, optionally owning the
/// case study the program came from. Observation always runs in-process
/// (the extractor needs the traces); out-of-process intervention replicas
/// re-run the deterministic observation scan and therefore rebuild the
/// identical predicate catalog (cross-checked at handshake).
class VmSessionTarget : public SessionTarget {
 public:
  /// Observes `config.program` under `config.vm`, or -- with `study` --
  /// the study's program under its own options, shipped to out-of-process
  /// replicas by its key `config.case_study`.
  static Result<std::unique_ptr<SessionTarget>> Create(
      std::string name, const TargetConfig& config,
      std::optional<CaseStudy> study = std::nullopt) {
    AID_RETURN_IF_ERROR(ValidateSubstrate(config));
    std::unique_ptr<VmSessionTarget> target(
        new VmSessionTarget(std::move(name)));
    const Program* program = config.program;
    VmTargetOptions effective = config.vm;
    if (study.has_value()) {
      // Move the study into the target first so the program pointer is
      // taken from its final location.
      target->study_ = std::move(study);
      program = &target->study_->program;
      effective = target->study_->target_options;
    }
    if (program == nullptr) {
      return Status::InvalidArgument(
          "vm target: TargetConfig::program is required");
    }
    target->program_ = program;
    AID_ASSIGN_OR_RETURN(target->vm_target_,
                         VmTarget::Create(program, effective));
    AID_ASSIGN_OR_RETURN(
        StatisticalDebugger sd,
        StatisticalDebugger::Analyze(target->vm_target_->extractor().catalog(),
                                     target->vm_target_->extractor().logs()));
    target->sd_count_ = static_cast<int>(sd.FullyDiscriminative().size());
    SubjectSpec spec;
    if (target->study_.has_value()) {
      spec.kind = SubjectKind::kCase;
      spec.case_key = config.case_study;
    } else {
      spec.kind = SubjectKind::kVmProgram;
      spec.program = program;
      spec.vm = effective;
    }
    AID_RETURN_IF_ERROR(target->stack_.Assemble(
        target->vm_target_.get(), spec,
        static_cast<uint32_t>(target->vm_target_->extractor().catalog().size()),
        config));
    return std::unique_ptr<SessionTarget>(std::move(target));
  }

  std::string_view name() const override { return name_; }
  std::string_view description() const override {
    return study_.has_value() ? std::string_view(study_->origin)
                              : std::string_view();
  }
  InterventionTarget* intervention_target() override { return stack_.top(); }
  Result<AcDag> BuildAcDag() override { return vm_target_->BuildAcDag(); }
  const PredicateCatalog* catalog() const override {
    return &vm_target_->extractor().catalog();
  }
  const SymbolTable* method_names() const override {
    return &program_->method_names();
  }
  const SymbolTable* object_names() const override {
    return &program_->object_names();
  }
  int sd_predicate_count() const override { return sd_count_; }

 private:
  explicit VmSessionTarget(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::optional<CaseStudy> study_;  ///< set iff this target owns its study
  const Program* program_ = nullptr;
  std::unique_ptr<VmTarget> vm_target_;
  int sd_count_ = 0;
  /// Declared last: it borrows vm_target_.
  SubstrateStack stack_;
};

/// A ground-truth model target (deterministic or flaky). Borrows the model.
class ModelSessionTarget : public SessionTarget {
 public:
  /// Targets `config.model`; with `flaky`, the root cause manifests with
  /// `config.manifest_probability` (FlakyModelTarget seeded with
  /// `config.flaky_seed`).
  static Result<std::unique_ptr<SessionTarget>> Create(
      std::string name, const TargetConfig& config, bool flaky) {
    const GroundTruthModel* model = config.model;
    if (model == nullptr) {
      return Status::InvalidArgument(
          "model target: TargetConfig::model is required");
    }
    AID_RETURN_IF_ERROR(ValidateSubstrate(config));
    const double manifest_probability =
        flaky ? config.manifest_probability : 1.0;
    std::unique_ptr<ModelSessionTarget> target(
        new ModelSessionTarget(std::move(name), model));
    SubjectSpec spec;
    spec.model = model;
    if (manifest_probability >= 1.0) {
      spec.kind = SubjectKind::kModel;
      target->local_ = std::make_unique<ModelTarget>(model);
    } else {
      spec.kind = SubjectKind::kFlakyModel;
      spec.manifest_probability = manifest_probability;
      spec.flaky_seed = config.flaky_seed;
      target->local_ = std::make_unique<FlakyModelTarget>(
          model, manifest_probability, config.flaky_seed);
    }
    AID_RETURN_IF_ERROR(target->stack_.Assemble(
        target->local_.get(), spec,
        static_cast<uint32_t>(model->catalog().size()), config));
    return std::unique_ptr<SessionTarget>(std::move(target));
  }

  std::string_view name() const override { return name_; }
  InterventionTarget* intervention_target() override { return stack_.top(); }
  Result<AcDag> BuildAcDag() override { return model_->BuildAcDag(); }
  const PredicateCatalog* catalog() const override {
    return &model_->catalog();
  }
 private:
  ModelSessionTarget(std::string name, const GroundTruthModel* model)
      : name_(std::move(name)), model_(model) {}

  std::string name_;
  const GroundTruthModel* model_;
  /// In-process intervention target over the model.
  std::unique_ptr<ReplicableTarget> local_;
  /// Declared last: it borrows local_.
  SubstrateStack stack_;
};

/// Borrows an externally assembled InterventionTarget + AC-DAG.
class AdapterSessionTarget : public SessionTarget {
 public:
  AdapterSessionTarget(std::string name, InterventionTarget* target,
                       const AcDag* dag, const PredicateCatalog* catalog,
                       const SymbolTable* methods, const SymbolTable* objects)
      : name_(std::move(name)),
        target_(target),
        dag_(dag),
        catalog_(catalog),
        methods_(methods),
        objects_(objects) {}

  std::string_view name() const override { return name_; }
  InterventionTarget* intervention_target() override { return target_; }
  Result<AcDag> BuildAcDag() override { return *dag_; }
  const AcDag* prebuilt_dag() const override { return dag_; }
  const PredicateCatalog* catalog() const override { return catalog_; }
  const SymbolTable* method_names() const override { return methods_; }
  const SymbolTable* object_names() const override { return objects_; }

 private:
  std::string name_;
  InterventionTarget* target_;
  const AcDag* dag_;
  const PredicateCatalog* catalog_;
  const SymbolTable* methods_;
  const SymbolTable* objects_;
};

Result<std::unique_ptr<SessionTarget>> CreateCaseTarget(
    const TargetConfig& config) {
  AID_ASSIGN_OR_RETURN(CaseStudy study, MakeCaseStudyByKey(config.case_study));
  return VmSessionTarget::Create("case:" + config.case_study, config,
                                 std::move(study));
}

struct Registry {
  std::mutex mu;
  std::map<std::string, TargetFactory::Creator> creators;

  Registry() {
    creators["vm"] = [](const TargetConfig& config) {
      return VmSessionTarget::Create("vm", config);
    };
    creators["model"] = [](const TargetConfig& config) {
      return ModelSessionTarget::Create("model", config, /*flaky=*/false);
    };
    creators["flaky-model"] = [](const TargetConfig& config) {
      return ModelSessionTarget::Create("flaky-model", config, /*flaky=*/true);
    };
    creators["case"] = CreateCaseTarget;
    for (const std::string& key : CaseStudyKeys()) {
      creators["case:" + key] = [key](TargetConfig config) {
        config.case_study = key;
        return CreateCaseTarget(config);
      };
    }
  }
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

}  // namespace

void TargetFactory::Register(std::string name, Creator creator) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.creators[std::move(name)] = std::move(creator);
}

bool TargetFactory::IsRegistered(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.creators.count(name) > 0;
}

std::vector<std::string> TargetFactory::RegisteredNames() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.creators.size());
  for (const auto& [name, creator] : registry.creators) {
    names.push_back(name);
  }
  return names;
}

Result<std::unique_ptr<SessionTarget>> TargetFactory::Create(
    const std::string& name, const TargetConfig& config) {
  Creator creator;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.creators.find(name);
    if (it == registry.creators.end()) {
      return Status::NotFound("no target backend registered as '" + name +
                              "'");
    }
    creator = it->second;  // copy: creators may call back into the factory
  }
  return creator(config);
}

Result<std::unique_ptr<SessionTarget>> MakeVmSessionTarget(
    const Program* program, const VmTargetOptions& options,
    std::string name) {
  TargetConfig config;
  config.program = program;
  config.vm = options;
  return VmSessionTarget::Create(std::move(name), config);
}

Result<std::unique_ptr<SessionTarget>> MakeModelSessionTarget(
    const GroundTruthModel* model, double manifest_probability,
    uint64_t flaky_seed, std::string name) {
  TargetConfig config;
  config.model = model;
  config.manifest_probability = manifest_probability;
  config.flaky_seed = flaky_seed;
  return ModelSessionTarget::Create(std::move(name), config, /*flaky=*/true);
}

std::unique_ptr<SessionTarget> MakeAdapterSessionTarget(
    InterventionTarget* target, const AcDag* dag,
    const PredicateCatalog* catalog, const SymbolTable* methods,
    const SymbolTable* objects, std::string name) {
  return std::make_unique<AdapterSessionTarget>(std::move(name), target, dag,
                                                catalog, methods, objects);
}

}  // namespace aid
