// aidbench: end-to-end and per-layer benchmark of the AID library.
//
//   aidbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <chrome-trace.json>]
//
// Sets the workload up several times (setup_s is the median), then runs
// closed-loop sessions for --seconds. With --trace 0 it prints the
// end-to-end metrics of that untraced run. With --trace 1 every other step
// is traced: it drives the same sessions through the spanned
// DiscoveryState / service-client path; the run prints the
// per-layer metrics, checks the traced reports against the untraced ones,
// and writes the spans as a Chrome trace. Every session's answer is
// checked; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is nonzero when any answer was wrong.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "telemetry/json.h"
#include "workloads.h"

namespace aidbench {
namespace {

constexpr int kSetupReps = 7;
constexpr int kCpus = 2;

/// Confines the process, and every thread and subject process it starts
/// later, to the first kCpus CPUs it may run on. Spread over more CPUs,
/// the subprocess pool's cross-CPU wake-ups made isolated_scan's median
/// session time swing by a fifth between runs; on two it repeats within a
/// few percent.
void PinToCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < kCpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

rusage Usage(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return usage;
}

double CpuSeconds(const rusage& usage) {
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

/// VmHWM of a /proc/<pid>/status file, in KiB (0 when unreadable). Used
/// instead of ru_maxrss, which Linux carries across exec: the benchmark's
/// own figure would read its launcher's peak, and each subject process's
/// the benchmark's peak at fork.
long HighWaterKb(const std::filesystem::path& status) {
  std::ifstream in(status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Summed VmHWM of this process's live children, in KiB.
long ChildrenHighWaterKb() {
  long total = 0;
  const std::string self = std::to_string(getpid());
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc", error)) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    std::getline(stat, line);
    // "pid (comm) state ppid ...": comm may hold spaces, so parse after ')'.
    const size_t comm_end = line.rfind(')');
    if (comm_end == std::string::npos) continue;
    std::istringstream fields(line.substr(comm_end + 1));
    std::string state, ppid;
    fields >> state >> ppid;
    if (ppid == self) total += HighWaterKb(entry.path() / "status");
  }
  return total;
}

struct LoopResult {
  std::vector<SessionRecord> records;
  double wall_s = 0;
};

/// Runs closed-loop steps for `seconds`. With `spans`, every other cycle
/// of the subject rotation takes the traced path, so both halves see every
/// subject, drift over the run (warming caches, host load) hits them alike,
/// and their difference is the tracing cost.
void RunLoop(Workload& workload, SpanLog* spans, double seconds,
             LayerCounters& counters, LoopResult& untraced,
             LoopResult& traced) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (uint64_t step = 0; Clock::now() < deadline; ++step) {
    const bool trace_step =
        spans != nullptr && (step / workload.cycle_steps()) % 2 == 1;
    LoopResult& loop = trace_step ? traced : untraced;
    const Clock::time_point start = Clock::now();
    for (SessionRecord& record :
         workload.Step(trace_step ? spans : nullptr, counters)) {
      loop.records.push_back(std::move(record));
    }
    loop.wall_s += MillisBetween(start, Clock::now()) / 1e3;
  }
}

/// Session latency and cost, per subject first and then combined across
/// subjects (geometric mean for latencies, mean for the cost units), so a
/// mix of fast and slow subjects does not put the percentile on the cliff
/// between them.
struct Summary {
  double p50_ms = 0;
  double tail_ms = 0;
  size_t min_per_subject = 0;
  double executions = 0;
  double rounds = 0;
  size_t failed = 0;
};

Summary Summarize(const Workload& workload, const LoopResult& loop) {
  const size_t n = workload.subjects().size();
  std::vector<std::vector<double>> ms(n);
  std::vector<double> executions(n, 0), rounds(n, 0);
  Summary summary;
  for (const SessionRecord& record : loop.records) {
    if (!record.ok || !record.correct) {
      ++summary.failed;
      continue;
    }
    ms[record.subject].push_back(record.ms);
    executions[record.subject] += static_cast<double>(record.executions);
    rounds[record.subject] += static_cast<double>(record.rounds);
  }
  summary.min_per_subject = loop.records.size();
  double log_p50 = 0, log_tail = 0;
  for (size_t s = 0; s < n; ++s) {
    summary.min_per_subject = std::min(summary.min_per_subject, ms[s].size());
    if (ms[s].empty()) return summary;
    const double count = static_cast<double>(ms[s].size());
    log_p50 += std::log(Percentile(ms[s], 50));
    log_tail += std::log(Percentile(ms[s], workload.tail_percentile()));
    summary.executions += executions[s] / count;
    summary.rounds += rounds[s] / count;
  }
  summary.p50_ms = std::exp(log_p50 / static_cast<double>(n));
  summary.tail_ms = std::exp(log_tail / static_cast<double>(n));
  summary.executions /= static_cast<double>(n);
  summary.rounds /= static_cast<double>(n);
  return summary;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Get(const std::map<std::string, double>& map, const std::string& key) {
  auto it = map.find(key);
  return it == map.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: aidbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "aidbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  PinToCpus();
  auto fail = [](const char* stage, const aid::Status& status) {
    std::fprintf(stderr, "aidbench: %s failed: %s\n", stage,
                 status.ToString().c_str());
    return 1;
  };
  if (aid::Status s = workload->Prepare(); !s.ok()) return fail("prepare", s);

  // Set up several times and keep the last instance; only its children
  // count toward the run's CPU.
  std::vector<double> setup_s;
  rusage children_before{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep == kSetupReps - 1) children_before = Usage(RUSAGE_CHILDREN);
    const Clock::time_point start = Clock::now();
    if (aid::Status s = workload->SetUp(); !s.ok()) return fail("set-up", s);
    setup_s.push_back(MillisBetween(start, Clock::now()) / 1e3);
    if (rep + 1 < kSetupReps) workload->TearDown();
  }

  LayerCounters counters;
  LoopResult untraced, traced;
  SpanLog spans;
  if (args.trace) {
    if (aid::Status s = workload->MeasureSetupLayers(counters); !s.ok()) {
      return fail("set-up layer measurement", s);
    }
  }
  const rusage self_before = Usage(RUSAGE_SELF);
  RunLoop(*workload, args.trace ? &spans : nullptr, args.seconds, counters,
          untraced, traced);
  const rusage self_after = Usage(RUSAGE_SELF);
  const long peak_rss_kb =
      HighWaterKb("/proc/self/status") + ChildrenHighWaterKb();
  workload->TearDown();
  const rusage children_after = Usage(RUSAGE_CHILDREN);

  const Summary summary = Summarize(*workload, untraced);
  const double sessions = static_cast<double>(untraced.records.size());
  std::vector<std::string> problems;
  size_t failed = 0;
  for (const LoopResult* loop : {&untraced, &traced}) {
    for (const SessionRecord& record : loop->records) {
      if (record.ok && record.correct) continue;
      if (++failed <= 10) {
        problems.push_back(workload->subjects()[record.subject] + ": " +
                           record.error);
      }
    }
  }
  if (summary.min_per_subject == 0) {
    problems.push_back("a subject ran no session; raise --seconds");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double cpu_s = CpuSeconds(self_after) - CpuSeconds(self_before) +
                         CpuSeconds(children_after) -
                         CpuSeconds(children_before);
    metrics = {
        {"session_ms_p50", summary.p50_ms, "ms"},
        {"session_ms_tail", summary.tail_ms, "ms"},
        {"sessions_per_s", Ratio(sessions, untraced.wall_s), "1/s"},
        {"cpu_ms_per_session", Ratio(cpu_s * 1e3, sessions), "ms"},
        {"executions_per_session", summary.executions, "count"},
        {"rounds_per_session", summary.rounds, "count"},
        {"correct_frac",
         Ratio(sessions - static_cast<double>(summary.failed), sessions),
         "fraction"},
        {"setup_s", Percentile(setup_s, 50), "s"},
        {"peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB"},
    };
    std::printf("# %s: %zu sessions in %.2f s, tail = p%g per subject "
                "(>= %zu sessions per subject), error_frac %.4f\n",
                args.workload.c_str(), untraced.records.size(),
                untraced.wall_s, workload->tail_percentile(),
                summary.min_per_subject,
                Ratio(static_cast<double>(summary.failed), sessions));
    for (size_t subject = 0; subject < workload->subjects().size(); ++subject) {
      std::printf("#   %s: %zu sessions\n",
                  workload->subjects()[subject].c_str(),
                  static_cast<size_t>(std::count_if(
                      untraced.records.begin(), untraced.records.end(),
                      [&](const SessionRecord& r) { return r.subject == subject; })));
    }
  } else {
    const Summary traced_summary = Summarize(*workload, traced);
    if (traced_summary.executions != summary.executions ||
        traced_summary.rounds != summary.rounds) {
      problems.push_back("traced run's executions/rounds differ from the "
                         "untraced run's");
    }
    const std::map<std::string, double> self = spans.SelfMillisByLayer();
    const double session_ms = spans.SessionMillis();
    double accounted_ms = 0;
    for (const auto& [layer, ms] : self) accounted_ms += ms;
    if (std::abs(accounted_ms - session_ms) > 0.05 * session_ms) {
      problems.push_back("layer self times do not add up to session time");
    }
    const double n = static_cast<double>(traced.records.size());
    auto per_session = [&](const std::string& layer) {
      return Ratio(Get(self, layer), n);
    };
    metrics = {
        {"api.build_ms", per_session("api.build"), "ms"},
        {"causal.acdag_ms", per_session("causal.acdag"), "ms"},
        {"core.plan_ms", per_session("core.plan"), "ms"},
        {"core.plan_calls", Ratio(Get(counters, "core.plan_calls"), n),
         "count"},
        {"core.absorb_ms", per_session("core.absorb"), "ms"},
        {"core.finalize_ms", per_session("core.finalize"), "ms"},
        {"core.execute_ms", per_session("core.execute"), "ms"},
        {"target.us_per_execution",
         Ratio(Get(self, "core.execute") * 1e3,
               Get(counters, "exec.executions")),
         "us"},
        {"proc.spawn_ms",
         Ratio(Get(counters, "proc.spawn_ms"), Get(counters, "proc.spawns")),
         "ms"},
        {"exec.speculative_frac",
         Ratio(Get(counters, "exec.speculative"),
               Get(counters, "exec.executions")),
         "fraction"},
        {"exec.steals", Ratio(Get(counters, "exec.steals"), n), "count"},
        {"exec.straggler_wait_ms",
         Ratio(Get(counters, "exec.straggler_wait_ms"), n), "ms"},
        {"proc.respawns", Ratio(Get(counters, "proc.respawns"), n), "count"},
        {"proc.crashed_trials", Ratio(Get(counters, "proc.crashed_trials"), n),
         "count"},
        {"budget.trials_allocated",
         Ratio(Get(counters, "budget.trials_allocated"), n), "count"},
        {"budget.early_stops", Ratio(Get(counters, "budget.early_stops"), n),
         "count"},
        {"service.admit_ms", per_session("service.admit"), "ms"},
        {"service.await_ms", per_session("service.await"), "ms"},
        {"service.checkpoint_bytes",
         Ratio(Get(counters, "service.checkpoint_bytes"),
               Get(counters, "service.checkpoints")),
         "bytes"},
        {"service.resume_ms", per_session("service.resume"), "ms"},
        {"bench.self_frac", Ratio(Get(self, kSessionLayer), session_ms),
         "fraction"},
        {"bench.trace_overhead_frac",
         Ratio(traced_summary.p50_ms, summary.p50_ms) - 1.0, "fraction"},
    };
    std::printf("# %s traced: %zu sessions, layers + benchmark account for "
                "%.4f of %.1f ms session time\n",
                args.workload.c_str(), traced.records.size(),
                Ratio(accounted_ms, session_ms), session_ms);
    if (!args.trace_out.empty() && !spans.WriteChromeTrace(args.trace_out)) {
      problems.push_back("could not write " + args.trace_out);
    }
  }

  for (const std::string& problem : problems) {
    std::fprintf(stderr, "aidbench: %s\n", problem.c_str());
  }
  for (const Metric& metric : metrics) {
    std::printf("%-28s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = problems.empty();
  aid::JsonWriter json;
  json.BeginObject()
      .Key("correct").Bool(correct)
      .Key("attempted").U64(untraced.records.size() + traced.records.size())
      .Key("failed").U64(failed)
      .Key("metrics").BeginObject();
  for (const Metric& metric : metrics) {
    json.Key(metric.name).BeginObject()
        .Key("value").Double(metric.value)
        .Key("unit").String(metric.unit)
        .EndObject();
  }
  json.EndObject().EndObject();
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace aidbench

int main(int argc, char** argv) { return aidbench::Main(argc, argv); }
