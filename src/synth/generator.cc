#include "synth/generator.h"

#include <algorithm>
#include <cmath>

#include "causal/acdag.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace aid {
namespace {

/// Picks `count` distinct sorted positions in [0, n).
std::vector<size_t> PickPositions(size_t n, size_t count, Rng& rng) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  rng.Shuffle(all);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

Result<std::unique_ptr<GroundTruthModel>> GenerateSyntheticApp(
    const SyntheticAppOptions& options) {
  if (options.max_threads < options.min_threads || options.min_threads < 1) {
    return Status::InvalidArgument("invalid thread range");
  }
  if (options.chain_min < 1 || options.chain_max < options.chain_min ||
      options.branch_min < 1 || options.branch_max < options.branch_min ||
      options.blocks_min < 1 || options.blocks_max < options.blocks_min) {
    return Status::InvalidArgument("invalid segment ranges");
  }
  Rng rng(options.seed);
  auto model = std::make_unique<GroundTruthModel>();
  model->AddFailure();

  const int threads = static_cast<int>(
      rng.UniformRange(options.min_threads, options.max_threads));
  const int blocks = static_cast<int>(
      rng.UniformRange(options.blocks_min, options.blocks_max));

  // Layout: chain0, block1, chain1, .., blockK, chainK. `path` collects the
  // candidate causal path: every serial node plus one branch per block.
  int next_index = 0;
  std::vector<PredicateId> path;
  PredicateId prev_tail = kInvalidPredicate;  // last node of prior segment

  auto add_chain = [&](int length) {
    std::vector<PredicateId> chain;
    for (int i = 0; i < length; ++i) {
      const PredicateId id = model->AddPredicate(next_index++);
      if (prev_tail != kInvalidPredicate) {
        model->AddTemporalEdge(prev_tail, id);
      }
      prev_tail = id;
      chain.push_back(id);
    }
    return chain;
  };

  for (PredicateId id :
       add_chain(static_cast<int>(rng.UniformRange(options.chain_min, options.chain_max)))) {
    path.push_back(id);
  }

  for (int block = 0; block < blocks; ++block) {
    const PredicateId split = prev_tail;
    const size_t causal_branch = rng.Uniform(static_cast<uint64_t>(threads));
    std::vector<PredicateId> branch_tails;
    for (int b = 0; b < threads; ++b) {
      const int len = static_cast<int>(
          rng.UniformRange(options.branch_min, options.branch_max));
      prev_tail = split;
      std::vector<PredicateId> branch = add_chain(len);
      branch_tails.push_back(prev_tail);
      if (static_cast<size_t>(b) == causal_branch) {
        for (PredicateId id : branch) path.push_back(id);
      }
    }
    // Merge: the serial segment after the block starts once every branch
    // has finished (join), so every branch tail precedes it.
    const int merge_len = static_cast<int>(
        rng.UniformRange(options.chain_min, options.chain_max));
    prev_tail = kInvalidSymbol;
    std::vector<PredicateId> merge_chain;
    for (int i = 0; i < merge_len; ++i) {
      const PredicateId id = model->AddPredicate(next_index++);
      if (i == 0) {
        for (PredicateId tail : branch_tails) model->AddTemporalEdge(tail, id);
      } else {
        model->AddTemporalEdge(prev_tail, id);
      }
      prev_tail = id;
      merge_chain.push_back(id);
      path.push_back(id);
    }
  }

  // Causal chain: D ~ U[1, N / log2 N] of the path nodes, in order.
  const size_t n = model->size();
  const double log2n = std::max(1.0, Log2(static_cast<double>(std::max<size_t>(2, n))));
  const int64_t d_cap =
      std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(n) / log2n));
  size_t d = static_cast<size_t>(rng.UniformRange(1, d_cap));
  d = std::min(d, path.size());
  std::vector<size_t> chosen = PickPositions(path.size(), d, rng);
  std::vector<PredicateId> chain;
  for (size_t pos : chosen) chain.push_back(path[pos]);
  model->SetCausalChain(chain);

  // Non-causal predicates: symptoms of causal predicates or spontaneous
  // noise. A symptom's true parent must be a temporal *ancestor* in the
  // AC-DAG -- true causality the AC-DAG misses would break the paper's
  // completeness guarantee (Section 4) -- so candidates are restricted via
  // the DAG built from the structural edges (a smaller id alone is not
  // enough: a chain member on a sibling branch has no stable order).
  AID_ASSIGN_OR_RETURN(AcDag dag, model->BuildAcDag());
  std::vector<bool> on_chain(model->catalog().size(), false);
  for (PredicateId id : chain) on_chain[static_cast<size_t>(id)] = true;
  for (PredicateId id : model->predicates()) {
    if (on_chain[static_cast<size_t>(id)]) continue;
    if (!rng.Bernoulli(options.symptom_prob)) continue;  // spontaneous
    std::vector<PredicateId> ancestors;
    for (PredicateId c : chain) {
      if (dag.Reaches(c, id)) ancestors.push_back(c);
    }
    if (ancestors.empty()) continue;
    model->SetTrueParents(id, {rng.Pick(ancestors)});
  }

  return model;
}

Result<std::unique_ptr<GroundTruthModel>> MakeSymmetricModel(int junctions,
                                                             int branches,
                                                             int chain_len,
                                                             int causal,
                                                             uint64_t seed) {
  if (junctions < 1 || branches < 1 || chain_len < 1) {
    return Status::InvalidArgument("junctions, branches, chain_len must be >= 1");
  }
  if (causal < 1 || causal > junctions * chain_len) {
    return Status::InvalidArgument(StrFormat(
        "causal must be in [1, %d]", junctions * chain_len));
  }
  Rng rng(seed);
  auto model = std::make_unique<GroundTruthModel>();
  model->AddFailure();

  int next_index = 0;
  std::vector<PredicateId> path;
  std::vector<PredicateId> prev_tails;  // tails of the previous block
  for (int j = 0; j < junctions; ++j) {
    const size_t causal_branch = rng.Uniform(static_cast<uint64_t>(branches));
    std::vector<PredicateId> tails;
    for (int b = 0; b < branches; ++b) {
      PredicateId prev = kInvalidPredicate;
      for (int i = 0; i < chain_len; ++i) {
        const PredicateId id = model->AddPredicate(next_index++);
        if (prev != kInvalidPredicate) {
          model->AddTemporalEdge(prev, id);
        } else {
          for (PredicateId tail : prev_tails) model->AddTemporalEdge(tail, id);
        }
        prev = id;
        if (static_cast<size_t>(b) == causal_branch) path.push_back(id);
      }
      tails.push_back(prev);
    }
    prev_tails = std::move(tails);
  }

  std::vector<size_t> chosen =
      PickPositions(path.size(), static_cast<size_t>(causal), rng);
  std::vector<PredicateId> chain;
  for (size_t pos : chosen) chain.push_back(path[pos]);
  model->SetCausalChain(chain);
  return model;
}

}  // namespace aid
