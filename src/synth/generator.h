// Synthetic application generator (paper Section 7.2) and the symmetric
// AC-DAG of Figure 5(c).
//
// Generated applications mirror the paper's benchmark: multi-threaded
// programs with up to MAXt threads, predicate counts N growing with MAXt
// (the paper reports N in [4, 284] for MAXt in [2, 40]), and the number of
// causal predicates drawn uniformly from [1, N / log2 N].
//
// Shape: alternating serial chain segments and parallel blocks of T branch
// chains (spawn/join phases of a concurrent program). The true causal chain
// follows one branch through each parallel block; remaining predicates are
// either spontaneous co-occurring noise or true effects of causal
// predicates (symptoms) -- the two flavors of spurious predicate the paper's
// Figure 4 walk-through exhibits (P7 vs P10).

#ifndef AID_SYNTH_GENERATOR_H_
#define AID_SYNTH_GENERATOR_H_

#include <memory>

#include "common/rng.h"
#include "common/status.h"
#include "synth/model.h"

namespace aid {

struct SyntheticAppOptions {
  int max_threads = 10;  ///< the paper's MAXt knob
  uint64_t seed = 1;
  int min_threads = 2;
  /// Serial segment length range.
  int chain_min = 1;
  int chain_max = 3;
  /// Per-branch chain length range inside parallel blocks.
  int branch_min = 1;
  int branch_max = 6;
  /// Number of parallel blocks (junctions) range.
  int blocks_min = 1;
  int blocks_max = 2;
  /// Probability that a non-causal predicate is a symptom (true effect of a
  /// causal predicate) rather than spontaneous noise.
  double symptom_prob = 0.5;
};

/// Generates one synthetic application with a known root cause.
Result<std::unique_ptr<GroundTruthModel>> GenerateSyntheticApp(
    const SyntheticAppOptions& options);

/// Builds the symmetric AC-DAG model of Figure 5(c): `junctions` blocks,
/// each with `branches` branches of `chain_len` predicates; `causal` of the
/// path predicates form the causal chain. Requires causal <= junctions *
/// chain_len.
Result<std::unique_ptr<GroundTruthModel>> MakeSymmetricModel(int junctions,
                                                             int branches,
                                                             int chain_len,
                                                             int causal,
                                                             uint64_t seed);

}  // namespace aid

#endif  // AID_SYNTH_GENERATOR_H_
