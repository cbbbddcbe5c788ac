#include "sd/statistical_debugger.h"

#include <algorithm>

namespace aid {

Result<StatisticalDebugger> StatisticalDebugger::Analyze(
    const PredicateCatalog& catalog, const std::vector<PredicateLog>& logs) {
  int failed = 0;
  int successful = 0;
  for (const PredicateLog& log : logs) {
    log.failed ? ++failed : ++successful;
  }
  if (failed == 0 || successful == 0) {
    return Status::InvalidArgument(
        "statistical debugging requires both failed and successful logs");
  }

  StatisticalDebugger sd;
  sd.failed_runs_ = failed;
  sd.successful_runs_ = successful;
  sd.stats_.resize(catalog.size());
  for (auto& s : sd.stats_) {
    s.failed_runs = failed;
    s.successful_runs = successful;
  }
  for (const PredicateLog& log : logs) {
    for (const auto& [id, obs] : log.observed) {
      (void)obs;
      if (static_cast<size_t>(id) >= sd.stats_.size()) continue;
      if (log.failed) {
        ++sd.stats_[static_cast<size_t>(id)].true_in_failed;
      } else {
        ++sd.stats_[static_cast<size_t>(id)].true_in_successful;
      }
    }
  }
  return sd;
}

std::vector<PredicateId> StatisticalDebugger::FullyDiscriminative() const {
  std::vector<PredicateId> out;
  for (size_t i = 0; i < stats_.size(); ++i) {
    if (stats_[i].fully_discriminative()) {
      out.push_back(static_cast<PredicateId>(i));
    }
  }
  return out;
}

std::vector<RankedPredicate> StatisticalDebugger::Ranked(
    double min_recall) const {
  std::vector<RankedPredicate> out;
  for (size_t i = 0; i < stats_.size(); ++i) {
    if (stats_[i].true_total() == 0) continue;
    if (stats_[i].recall() < min_recall) continue;
    out.push_back({static_cast<PredicateId>(i), stats_[i]});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedPredicate& a, const RankedPredicate& b) {
              const double fa = a.stats.f1();
              const double fb = b.stats.f1();
              if (fa != fb) return fa > fb;
              return a.id < b.id;
            });
  return out;
}

}  // namespace aid
