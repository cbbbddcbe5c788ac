#include "synth/model.h"

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "proc/subject_spec.h"
#include "synth/generator.h"
#include "trace/serialize.h"

namespace aid {
namespace {

/// The model's semantics written out naively: from "nothing occurs", apply
/// "P occurs iff P is not intervened and all of P's true parents occurred"
/// to every predicate simultaneously until nothing changes (the least
/// fixpoint), then lay the observations out at their creation positions
/// with F last. Intervened ids outside the catalog mean nothing; F is never
/// a predicate, so intervening on it changes nothing either.
PredicateLog ReferenceExecute(const GroundTruthModel& model,
                              const std::vector<PredicateId>& intervened) {
  const auto& rules = model.true_parents();
  const size_t n = model.catalog().size();
  std::vector<bool> blocked(n, false);
  for (PredicateId id : intervened) {
    if (id >= 0 && static_cast<size_t>(id) < n) {
      blocked[static_cast<size_t>(id)] = true;
    }
  }
  const auto holds = [&](const std::vector<bool>& occurs, PredicateId id) {
    const auto& rule = rules[static_cast<size_t>(id)];
    if (!rule) return true;
    for (PredicateId p : *rule) {
      if (!occurs[static_cast<size_t>(p)]) return false;
    }
    return true;
  };
  std::vector<bool> occurs(n, false);
  for (bool changed = true; changed;) {
    std::vector<bool> next(n, false);
    for (PredicateId id : model.predicates()) {
      next[static_cast<size_t>(id)] =
          !blocked[static_cast<size_t>(id)] && holds(occurs, id);
    }
    changed = next != occurs;
    occurs = std::move(next);
  }
  std::map<PredicateId, PredicateObservation> sorted;
  Tick tick = 0;
  for (PredicateId id : model.predicates()) {
    if (occurs[static_cast<size_t>(id)]) sorted[id] = {tick, tick};
    ++tick;
  }
  PredicateLog log;
  log.failed = model.failure() == kInvalidPredicate ||
               holds(occurs, model.failure());
  if (log.failed && model.failure() != kInvalidPredicate) {
    sorted[model.failure()] = {tick, tick};
  }
  for (const auto& [id, obs] : sorted) log.observed[id] = obs;
  return log;
}

std::string Encoded(const PredicateLog& log) {
  WireWriter writer;
  EncodePredicateLog(log, writer);
  return writer.Release();
}

/// Execute against the reference: the failed flag, every entry in order,
/// set equality, Has on every id, and the encoded bytes.
void ExpectMatchesReference(const GroundTruthModel& model,
                            const std::vector<PredicateId>& intervened) {
  const PredicateLog got = model.Execute(intervened);
  const PredicateLog want = ReferenceExecute(model, intervened);
  EXPECT_EQ(got.failed, want.failed);
  ASSERT_EQ(got.observed.size(), want.observed.size());
  auto it = want.observed.begin();
  for (const auto& [id, obs] : got.observed) {
    EXPECT_EQ(id, it->first);
    EXPECT_EQ(obs, it->second) << "id " << id;
    ++it;
  }
  EXPECT_TRUE(got.observed == want.observed);
  const auto past_end = static_cast<PredicateId>(model.catalog().size() + 64);
  for (PredicateId id = -1; id <= past_end; ++id) {
    EXPECT_EQ(got.Has(id), want.Has(id)) << "Has " << id;
  }
  EXPECT_EQ(Encoded(got), Encoded(want));
}

/// Ids no predicate has, and F: Execute must ignore them all.
std::vector<PredicateId> IgnoredIds(const GroundTruthModel& model) {
  const auto n = static_cast<PredicateId>(model.catalog().size());
  return {model.failure(), -1, -64, std::numeric_limits<PredicateId>::min(),
          n, n + 63, std::numeric_limits<PredicateId>::max()};
}

/// `rounds` random intervention sets of 0..4 predicates, biased towards the
/// causal chain so that both failing and non-failing runs are covered. Some
/// sets repeat an id or add one Execute ignores, and some are the size of a
/// branch-pruning round (a third of the predicates).
void CheckRandomInterventions(const GroundTruthModel& model, uint64_t seed,
                              int rounds) {
  Rng rng(seed);
  ExpectMatchesReference(model, {});
  ExpectMatchesReference(model, IgnoredIds(model));
  for (int r = 0; r < rounds; ++r) {
    std::vector<PredicateId> intervened;
    const int k = rng.Bernoulli(0.1)
                      ? static_cast<int>(model.size() / 3)
                      : static_cast<int>(rng.UniformRange(0, 4));
    for (int i = 0; i < k; ++i) {
      intervened.push_back(rng.Bernoulli(0.3) ? rng.Pick(model.causal_chain())
                                              : rng.Pick(model.predicates()));
    }
    if (!intervened.empty() && rng.Bernoulli(0.2)) {
      intervened.push_back(rng.Pick(intervened));
    }
    if (rng.Bernoulli(0.2)) intervened.push_back(rng.Pick(IgnoredIds(model)));
    rng.Shuffle(intervened);
    ExpectMatchesReference(model, intervened);
    if (::testing::Test::HasFailure()) return;
  }
}

/// Every subset of `ids` intervened, with and without the ignored ids.
void CheckAllSubsets(const GroundTruthModel& model,
                     const std::vector<PredicateId>& ids) {
  for (uint32_t bits = 0; bits < (1u << ids.size()); ++bits) {
    std::vector<PredicateId> intervened;
    for (size_t i = 0; i < ids.size(); ++i) {
      if ((bits >> i) & 1) intervened.push_back(ids[i]);
    }
    SCOPED_TRACE(testing::Message() << "subset " << bits);
    ExpectMatchesReference(model, intervened);
    std::vector<PredicateId> noisy = IgnoredIds(model);
    noisy.insert(noisy.end(), intervened.begin(), intervened.end());
    noisy.insert(noisy.end(), intervened.begin(), intervened.end());
    ExpectMatchesReference(model, noisy);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ModelTest, OnePassExecuteEqualsTheFixpointOnGeneratedApps) {
  for (int threads : {2, 10, 40, 400}) {
    for (uint64_t seed = 1; seed <= (threads == 400 ? 2u : 6u); ++seed) {
      SCOPED_TRACE(testing::Message() << threads << " threads, seed " << seed);
      SyntheticAppOptions options;
      options.min_threads = options.max_threads = threads;
      options.blocks_min = 1;
      options.blocks_max = 2;
      options.seed = seed;
      auto model = GenerateSyntheticApp(options);
      ASSERT_TRUE(model.ok()) << model.status();
      CheckRandomInterventions(**model, seed, threads == 400 ? 10 : 40);
    }
  }
}

TEST(ModelTest, OnePassExecuteEqualsTheFixpointOnSymmetricModels) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto model = MakeSymmetricModel(/*junctions=*/3, /*branches=*/4,
                                    /*chain_len=*/3, /*causal=*/4, seed);
    ASSERT_TRUE(model.ok()) << model.status();
    CheckRandomInterventions(**model, seed, 40);
  }
}

TEST(ModelTest, ExecuteEqualsTheFixpointOnFig8Models) {
  // The generator settings and seeds of bench_fig8_synthetic.
  for (int max_threads : {10, 20, 40}) {
    for (uint64_t i = 0; i < 5; ++i) {
      SCOPED_TRACE(testing::Message() << "maxt " << max_threads << ", app "
                                      << i);
      SyntheticAppOptions options;
      options.max_threads = max_threads;
      options.seed = static_cast<uint64_t>(max_threads) * 1'000'003ULL + i;
      auto model = GenerateSyntheticApp(options);
      ASSERT_TRUE(model.ok()) << model.status();
      CheckRandomInterventions(**model, options.seed, 30);
    }
  }
}

TEST(ModelTest, ExecuteEqualsTheFixpointOnTheSynth3kModel) {
  // aidbench's synth_3k model: exactly 400 threads, two blocks, seed 101.
  SyntheticAppOptions options;
  options.min_threads = options.max_threads = 400;
  options.blocks_min = options.blocks_max = 2;
  options.seed = 101;
  auto model = GenerateSyntheticApp(options);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_EQ((*model)->size(), 2717u);
  CheckRandomInterventions(**model, 101, 20);
}

TEST(ModelTest, ExecuteEqualsTheFixpointOnHandBuiltRules) {
  // F is created second, so its id sits between predicates. The rules mix
  // what the generators never build: a conjunction replacing a chain rule
  // after SetCausalChain, F as a parent, a declared empty rule, a backward
  // parent, a two-cycle, a conjunction over a cycle member and F's own
  // rule widened to a conjunction.
  GroundTruthModel model;
  const PredicateId a = model.AddPredicate(0);
  const PredicateId f = model.AddFailure();
  std::vector<PredicateId> p = {a};
  for (int i = 1; i <= 9; ++i) p.push_back(model.AddPredicate(i));
  const PredicateId b = p[1], c = p[2], d = p[3], e = p[4], g = p[5],
                    h = p[6], i = p[7], j = p[8], k = p[9];
  model.SetCausalChain({a, c, e});
  model.SetTrueParents(c, {a, b});  // replaces the chain's c <- a
  model.SetTrueParents(d, {f});
  model.SetTrueParents(g, {});
  model.SetTrueParents(b, {h});  // backward: h comes later
  model.SetTrueParents(h, {g, a});
  model.SetTrueParents(i, {j});
  model.SetTrueParents(j, {i});
  model.SetTrueParents(k, {c, j});
  {
    SCOPED_TRACE("with backward rules");
    CheckAllSubsets(model, p);
    const PredicateLog all = model.Execute({});
    EXPECT_TRUE(all.failed);
    for (PredicateId id : {a, b, c, e, g, h}) EXPECT_TRUE(all.Has(id)) << id;
    for (PredicateId id : {d, i, j, k}) EXPECT_FALSE(all.Has(id)) << id;
  }

  // Forward only: one pass, conjunctions and F's widened rule included.
  model.SetTrueParents(b, {});
  model.SetTrueParents(i, {});
  model.SetTrueParents(j, {i, a});
  model.SetTrueParents(f, {e, j, a});
  {
    SCOPED_TRACE("forward rules only");
    CheckAllSubsets(model, p);
    EXPECT_TRUE(model.Execute({}).failed);
    EXPECT_FALSE(model.Execute({i}).failed);
    EXPECT_FALSE(model.Execute({a}).Has(j));
  }

  // F as its own parent never holds.
  model.SetTrueParents(f, {e, f});
  EXPECT_FALSE(model.Execute({}).failed);
  ExpectMatchesReference(model, {});
}

TEST(ModelTest, ExecuteWithoutAFailurePredicateAlwaysFails) {
  GroundTruthModel model;
  const PredicateId a = model.AddPredicate(0);
  const PredicateId b = model.AddPredicate(1);
  model.SetTrueParents(b, {a});
  CheckAllSubsets(model, {a, b});
  const PredicateLog log = model.Execute({a});
  EXPECT_TRUE(log.failed);
  EXPECT_TRUE(log.observed.empty());
}

TEST(ModelTest, BackwardRuleSetAfterForwardRulesForcesTheFixpoint) {
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(0);
  const PredicateId b = model.AddPredicate(1);
  const PredicateId c = model.AddPredicate(2);
  const PredicateId d = model.AddPredicate(3);
  model.SetCausalChain({c});
  model.SetTrueParents(b, {a});
  model.SetTrueParents(d, {b});
  // Declared last: a's parent c is created after it.
  model.SetTrueParents(a, {c});
  // Re-declaring the backward rule, and turning another backward rule
  // forward again, must leave the model on the fixpoint path.
  model.SetTrueParents(a, {c});
  model.SetTrueParents(b, {d});
  model.SetTrueParents(b, {a});

  const PredicateLog all = model.Execute({});
  EXPECT_TRUE(all.failed);
  for (PredicateId id : {a, b, c, d}) EXPECT_TRUE(all.Has(id)) << id;
  const PredicateLog stopped = model.Execute({c});
  EXPECT_FALSE(stopped.failed);
  for (PredicateId id : {a, b, c, d}) EXPECT_FALSE(stopped.Has(id)) << id;
  for (PredicateId id : {a, b, c, d}) ExpectMatchesReference(model, {id});

  // Made forward again, a is spontaneous and its effects survive c's
  // intervention.
  model.SetTrueParents(a, {});
  const PredicateLog forward = model.Execute({c});
  for (PredicateId id : {a, b, d}) EXPECT_TRUE(forward.Has(id)) << id;
  ExpectMatchesReference(model, {c});
}

TEST(ModelTest, CyclesNeverOccurNorAnythingBelowThem) {
  // a <-> b is a cycle, c hangs below it, d is spontaneous, e -> F is the
  // chain. The least fixpoint never lets a cycle bootstrap itself.
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(0);
  const PredicateId b = model.AddPredicate(1);
  const PredicateId c = model.AddPredicate(2);
  const PredicateId d = model.AddPredicate(3);
  const PredicateId e = model.AddPredicate(4);
  model.SetCausalChain({e});
  model.SetTrueParents(a, {b});
  model.SetTrueParents(b, {a});
  model.SetTrueParents(c, {a, d});

  // Subject-spec decoding checks ids, not acyclicity: the decoded copy must
  // give the same answers.
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = &model;
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto decoded = DecodeSubjectSpec(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  for (const GroundTruthModel* m : {&model, decoded->model.get()}) {
    const PredicateLog log = m->Execute({});
    EXPECT_TRUE(log.failed);
    EXPECT_FALSE(log.Has(a));
    EXPECT_FALSE(log.Has(b));
    EXPECT_FALSE(log.Has(c));
    EXPECT_TRUE(log.Has(d));
    EXPECT_TRUE(log.Has(e));
    EXPECT_EQ(log.observed.size(), 3u);  // d, e and F
    for (PredicateId id : {a, b, c, d, e}) ExpectMatchesReference(*m, {id});
  }

  // A cycle on the way to F: the failure can never occur.
  model.SetTrueParents(e, {a});
  EXPECT_FALSE(model.Execute({}).failed);
  ExpectMatchesReference(model, {});
}

TEST(ModelTest, ObservationsComeOutInIdOrderWithFLast) {
  // F is created between predicates: its id sits in the middle, its tick
  // after every predicate's.
  GroundTruthModel model;
  const PredicateId a = model.AddPredicate(0);
  const PredicateId f = model.AddFailure();
  const PredicateId b = model.AddPredicate(1);
  model.SetCausalChain({a});

  const PredicateLog log = model.Execute({});
  ASSERT_TRUE(log.failed);
  std::vector<PredicateId> ids;
  for (const auto& [id, obs] : log.observed) ids.push_back(id);
  EXPECT_EQ(ids, (std::vector<PredicateId>{a, f, b}));
  EXPECT_EQ(log.observed.at(a).start, 0);
  EXPECT_EQ(log.observed.at(b).start, 1);
  EXPECT_EQ(log.observed.at(f).start, 2);
  ExpectMatchesReference(model, {});
  ExpectMatchesReference(model, {a});
}

TEST(ModelTest, UninterventedExecutionObservesEverythingAndFails) {
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(0);
  const PredicateId b = model.AddPredicate(1);
  const PredicateId noise = model.AddPredicate(2);
  model.AddTemporalEdge(a, b);
  model.SetCausalChain({a, b});

  const PredicateLog log = model.Execute({});
  EXPECT_TRUE(log.failed);
  EXPECT_TRUE(log.Has(a));
  EXPECT_TRUE(log.Has(b));
  EXPECT_TRUE(log.Has(noise));  // spontaneous
  EXPECT_TRUE(log.Has(model.failure()));
}

TEST(ModelTest, InterveningAnyChainMemberStopsTheFailure) {
  GroundTruthModel model;
  model.AddFailure();
  std::vector<PredicateId> chain;
  for (int i = 0; i < 4; ++i) chain.push_back(model.AddPredicate(i));
  model.SetCausalChain(chain);

  for (PredicateId c : chain) {
    const PredicateLog log = model.Execute({c});
    EXPECT_FALSE(log.failed) << "intervened " << c;
    EXPECT_FALSE(log.Has(c));
    // Everything downstream of c on the chain vanishes too.
    bool after = false;
    for (PredicateId other : chain) {
      if (other == c) {
        after = true;
        continue;
      }
      EXPECT_EQ(log.Has(other), !after) << "chain member " << other;
    }
  }
}

TEST(ModelTest, InterveningNoiseDoesNotStopTheFailure) {
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId cause = model.AddPredicate(0);
  const PredicateId noise = model.AddPredicate(1);
  model.SetCausalChain({cause});

  const PredicateLog log = model.Execute({noise});
  EXPECT_TRUE(log.failed);
  EXPECT_FALSE(log.Has(noise));
  EXPECT_TRUE(log.Has(cause));
}

TEST(ModelTest, ConjunctiveParentsRequireAll) {
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(0);
  const PredicateId b = model.AddPredicate(1);
  const PredicateId both = model.AddPredicate(2);
  model.SetCausalChain({a});
  model.SetTrueParents(both, {a, b});

  EXPECT_TRUE(model.Execute({}).Has(both));
  EXPECT_FALSE(model.Execute({a}).Has(both));
  EXPECT_FALSE(model.Execute({b}).Has(both));
}

TEST(ModelTest, OutOfOrderParentIdsConverge) {
  // A parent with a *larger* id than its child: fixpoint propagation must
  // still settle (Figure 4's P10 depends on P11).
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId child = model.AddPredicate(0);
  const PredicateId parent = model.AddPredicate(1);
  model.SetCausalChain({parent});
  model.SetTrueParents(child, {parent});

  EXPECT_TRUE(model.Execute({}).Has(child));
  EXPECT_FALSE(model.Execute({parent}).Has(child));
}

TEST(ModelTest, TargetCountsExecutionsAndReplicatesTrials) {
  GroundTruthModel model;
  model.AddFailure();
  const PredicateId a = model.AddPredicate(0);
  model.SetCausalChain({a});

  ModelTarget target(&model);
  auto result = target.RunIntervened({}, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->logs.size(), 3u);
  EXPECT_TRUE(result->AnyFailed());
  EXPECT_EQ(target.executions(), 3);

  auto stopped = target.RunIntervened({a}, 1);
  ASSERT_TRUE(stopped.ok());
  EXPECT_FALSE(stopped->AnyFailed());
  EXPECT_EQ(target.executions(), 4);
}

TEST(ModelTest, AcDagContainsChainInOrder) {
  GroundTruthModel model;
  model.AddFailure();
  std::vector<PredicateId> chain;
  for (int i = 0; i < 3; ++i) chain.push_back(model.AddPredicate(i));
  model.AddTemporalEdge(chain[0], chain[1]);
  model.AddTemporalEdge(chain[1], chain[2]);
  model.SetCausalChain(chain);

  auto dag = model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag->Reaches(chain[0], chain[2]));
  EXPECT_TRUE(dag->Reaches(chain[2], model.failure()));
}

}  // namespace
}  // namespace aid
