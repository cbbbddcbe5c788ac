// Microbenchmarks for the core data structures and algorithms: AC-DAG
// construction, synthetic-app generation, model execution, and full
// causal-path discovery at several scales.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "api/session.h"
#include "causal/acdag.h"
#include "core/engine.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

void BM_GenerateSyntheticApp(benchmark::State& state) {
  SyntheticAppOptions options;
  options.max_threads = static_cast<int>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    auto model = GenerateSyntheticApp(options);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_GenerateSyntheticApp)->Arg(4)->Arg(16)->Arg(40);

// Exactly range(0) threads in two parallel blocks, seed 101: Arg(400) is
// the model of aidbench's synth_3k workload (2,718 predicates).
void BM_BuildAcDag(benchmark::State& state) {
  SyntheticAppOptions options;
  options.min_threads = options.max_threads = static_cast<int>(state.range(0));
  options.blocks_min = options.blocks_max = 2;
  options.seed = 101;
  auto model = GenerateSyntheticApp(options);
  for (auto _ : state) {
    auto dag = (*model)->BuildAcDag();
    benchmark::DoNotOptimize(dag);
  }
  state.counters["predicates"] =
      static_cast<double>((*model)->size());
}
BENCHMARK(BM_BuildAcDag)->Arg(4)->Arg(16)->Arg(40)->Arg(400);

// The models of BM_BuildAcDag (Arg(400) is synth_3k's) with every fourth
// predicate intervened, about as many as synth_3k's first branch-pruning
// round intervenes on (701). Execute's cost follows the catalog size and
// how many predicates occur, not which ids are intervened.
void BM_ModelExecute(benchmark::State& state) {
  SyntheticAppOptions options;
  options.min_threads = options.max_threads = static_cast<int>(state.range(0));
  options.blocks_min = options.blocks_max = 2;
  options.seed = 101;
  auto model = GenerateSyntheticApp(options);
  std::vector<PredicateId> intervened;
  for (size_t i = 0; i < (*model)->size(); i += 4) {
    intervened.push_back((*model)->predicates()[i]);
  }
  for (auto _ : state) {
    PredicateLog log = (*model)->Execute(intervened);
    benchmark::DoNotOptimize(log);
  }
  state.counters["predicates"] = static_cast<double>((*model)->size());
  state.counters["intervened"] = static_cast<double>(intervened.size());
}
BENCHMARK(BM_ModelExecute)->Arg(4)->Arg(16)->Arg(40)->Arg(400);

void BM_CausalPathDiscovery(benchmark::State& state) {
  SyntheticAppOptions options;
  options.max_threads = static_cast<int>(state.range(0));
  options.seed = 99;
  auto model = GenerateSyntheticApp(options);
  auto dag = (*model)->BuildAcDag();
  for (auto _ : state) {
    ModelTarget target(model->get());
    CausalPathDiscovery discovery(&*dag, &target, EngineOptions::Aid());
    auto report = discovery.Run();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CausalPathDiscovery)->Arg(4)->Arg(16)->Arg(40)->Arg(400);

// --- batched vs. single-call intervention dispatch -------------------------
//
// The same round of singleton interventions submitted one RunIntervened call
// at a time versus as one RunInterventionsBatch call. The model target's
// batch override skips the per-call Result/virtual-dispatch plumbing, which
// is exactly the overhead a remote or pooled backend would amortize.

InterventionSpans SingletonSpans(const GroundTruthModel& model) {
  InterventionSpans spans;
  spans.reserve(model.predicates().size());
  for (PredicateId id : model.predicates()) spans.push_back({id});
  return spans;
}

void BM_DispatchSingleCalls(benchmark::State& state) {
  SyntheticAppOptions options;
  options.max_threads = static_cast<int>(state.range(0));
  options.seed = 11;
  auto model = GenerateSyntheticApp(options);
  const InterventionSpans spans = SingletonSpans(**model);
  ModelTarget target(model->get());
  for (auto _ : state) {
    for (const auto& span : spans) {
      auto result = target.RunIntervened(span, /*trials=*/1);
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["spans"] = static_cast<double>(spans.size());
}
BENCHMARK(BM_DispatchSingleCalls)->Arg(4)->Arg(16)->Arg(40);

void BM_DispatchBatched(benchmark::State& state) {
  SyntheticAppOptions options;
  options.max_threads = static_cast<int>(state.range(0));
  options.seed = 11;
  auto model = GenerateSyntheticApp(options);
  const InterventionSpans spans = SingletonSpans(**model);
  ModelTarget target(model->get());
  for (auto _ : state) {
    auto results = target.RunInterventionsBatch(spans, /*trials=*/1);
    benchmark::DoNotOptimize(results);
  }
  state.counters["spans"] = static_cast<double>(spans.size());
}
BENCHMARK(BM_DispatchBatched)->Arg(4)->Arg(16)->Arg(40);

// Full linear-scan discovery through aid::Session, serial vs. batched
// dispatch of each scan round.
void BM_SessionLinearScan(benchmark::State& state) {
  SyntheticAppOptions options;
  options.max_threads = static_cast<int>(state.range(0));
  options.seed = 11;
  auto model = GenerateSyntheticApp(options);
  auto session = SessionBuilder()
                     .WithModel(model->get())
                     .WithDescriptions(false)
                     .Build();
  EngineOptions engine = EngineOptions::Linear();
  engine.batched_dispatch = state.range(1) != 0;
  for (auto _ : state) {
    auto report = session->Run(engine);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SessionLinearScan)
    ->ArgsProduct({{4, 16, 40}, {0, 1}})
    ->ArgNames({"maxt", "batched"});

}  // namespace
}  // namespace aid

// Custom main instead of benchmark_main: unless the caller already chose an
// output file, every run also writes BENCH_micro.json (google benchmark's
// own JSON schema), matching the BENCH_<name>.json contract of the other
// benches.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
