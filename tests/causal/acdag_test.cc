#include "causal/acdag.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aid {
namespace {

class AcDagTest : public ::testing::Test {
 protected:
  PredicateId Pred(int index) {
    return catalog_.Intern(
        Predicate{.kind = PredKind::kSynthetic, .occurrence = index});
  }
  PredicateId Failure() {
    return catalog_.Intern(Predicate{.kind = PredKind::kFailure});
  }

  /// Failed log observing each (id, tick) pair.
  PredicateLog FailedLog(std::vector<std::pair<PredicateId, Tick>> obs) {
    PredicateLog log;
    log.failed = true;
    for (auto [id, tick] : obs) log.observed[id] = {tick, tick};
    return log;
  }

  PredicateCatalog catalog_;
};

TEST_F(AcDagTest, BuildFromConsistentTimesYieldsChain) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId f = Failure();
  std::vector<PredicateLog> logs{FailedLog({{a, 1}, {b, 5}, {f, 9}}),
                                 FailedLog({{a, 2}, {b, 6}, {f, 9}})};
  auto dag = AcDag::Build(&catalog_, logs, {a, b, f}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->size(), 3u);
  EXPECT_TRUE(dag->Reaches(a, b));
  EXPECT_TRUE(dag->Reaches(a, f));
  EXPECT_TRUE(dag->Reaches(b, f));
  EXPECT_FALSE(dag->Reaches(b, a));
  EXPECT_EQ(dag->TopoOrder(), (std::vector<PredicateId>{a, b, f}));
}

TEST_F(AcDagTest, InconsistentOrderDropsBothEdges) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId f = Failure();
  // a before b in one log, after in the other.
  std::vector<PredicateLog> logs{FailedLog({{a, 1}, {b, 5}, {f, 9}}),
                                 FailedLog({{a, 6}, {b, 2}, {f, 9}})};
  auto dag = AcDag::Build(&catalog_, logs, {a, b, f}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_FALSE(dag->Reaches(a, b));
  EXPECT_FALSE(dag->Reaches(b, a));
  // Both still precede the failure.
  EXPECT_TRUE(dag->Reaches(a, f));
  EXPECT_TRUE(dag->Reaches(b, f));
  // They form a junction: one topo level with two members.
  const auto levels = dag->TopoLevels();
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].size(), 2u);
}

TEST_F(AcDagTest, TiedTimesProduceNoEdge) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId f = Failure();
  std::vector<PredicateLog> logs{FailedLog({{a, 5}, {b, 5}, {f, 9}})};
  auto dag = AcDag::Build(&catalog_, logs, {a, b, f}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_FALSE(dag->Reaches(a, b));
  EXPECT_FALSE(dag->Reaches(b, a));
}

TEST_F(AcDagTest, NodesNotReachingFailureAreDropped) {
  const PredicateId a = Pred(1);
  const PredicateId late = Pred(2);  // occurs after F's timestamp
  const PredicateId f = Failure();
  std::vector<PredicateLog> logs{FailedLog({{a, 1}, {late, 20}, {f, 9}})};
  auto dag = AcDag::Build(&catalog_, logs, {a, late, f}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->size(), 2u);
  EXPECT_TRUE(dag->Contains(a));
  EXPECT_FALSE(dag->Contains(late));
}

TEST_F(AcDagTest, SuccessfulLogsAreIgnored) {
  const PredicateId a = Pred(1);
  const PredicateId f = Failure();
  PredicateLog success;
  success.failed = false;
  success.observed[a] = {100, 100};  // would invert the order if counted
  std::vector<PredicateLog> logs{FailedLog({{a, 1}, {f, 9}}), success};
  auto dag = AcDag::Build(&catalog_, logs, {a, f}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag->Reaches(a, f));
}

TEST_F(AcDagTest, CandidateMissingFromSomeFailedLogsIsRejected) {
  // i < j in one log and j < k in another would give i -> j and j -> k but
  // no i -> k: a relation that is not transitively closed.
  const PredicateId i = Pred(1);
  const PredicateId j = Pred(2);
  const PredicateId k = Pred(3);
  const PredicateId f = Failure();
  std::vector<PredicateLog> logs{FailedLog({{i, 1}, {j, 2}, {f, 9}}),
                                 FailedLog({{j, 1}, {k, 2}, {f, 9}})};
  auto dag = AcDag::Build(&catalog_, logs, {i, j, k, f}, f);
  ASSERT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dag.status().message().find(catalog_.Describe(i, nullptr, nullptr)),
            std::string::npos)
      << dag.status();
  // With a third log holding k < i the same candidates used to be a cycle
  // error; they are rejected the same way now.
  logs.push_back(FailedLog({{k, 1}, {i, 2}, {f, 9}}));
  EXPECT_EQ(AcDag::Build(&catalog_, logs, {i, j, k, f}, f).status().code(),
            StatusCode::kInvalidArgument);
  // A candidate observed in no failed log is still allowed, and dropped.
  const PredicateId unseen = Pred(4);
  std::vector<PredicateLog> consistent{FailedLog({{i, 1}, {f, 9}}),
                                       FailedLog({{i, 2}, {f, 9}})};
  auto kept = AcDag::Build(&catalog_, consistent, {i, unseen, f}, f);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->nodes(), (std::vector<PredicateId>{i, f}));
}

TEST_F(AcDagTest, FailureMustBeAmongCandidates) {
  const PredicateId a = Pred(1);
  const PredicateId f = Failure();
  std::vector<PredicateLog> logs{FailedLog({{a, 1}, {f, 9}})};
  EXPECT_FALSE(AcDag::Build(&catalog_, logs, {a}, f).ok());
}

TEST_F(AcDagTest, PrecedencePolicySelectsTimestamp) {
  // A too-slow predicate (interval [0, 30]) vs a point predicate at 10:
  // with the end policy the slow predicate comes *after* the point one.
  PredicateCatalog catalog;
  const PredicateId slow = catalog.Intern(
      Predicate{.kind = PredKind::kTooSlow, .m1 = 1});
  const PredicateId point = catalog.Intern(
      Predicate{.kind = PredKind::kMethodFails, .m1 = 2});
  const PredicateId f = catalog.Intern(Predicate{.kind = PredKind::kFailure});
  PredicateLog log;
  log.failed = true;
  log.observed[slow] = {0, 30};
  log.observed[point] = {10, 10};
  log.observed[f] = {40, 40};
  std::vector<PredicateLog> logs{log};

  auto dag = AcDag::Build(&catalog, logs, {slow, point, f}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag->Reaches(point, slow));
  EXPECT_FALSE(dag->Reaches(slow, point));

  // With a start policy for kTooSlow the direction flips.
  PrecedenceConfig config = PrecedenceConfig::Default();
  config.Set(PredKind::kTooSlow, TimestampPolicy::kStart);
  auto dag2 = AcDag::Build(&catalog, logs, {slow, point, f}, f, config);
  ASSERT_TRUE(dag2.ok());
  EXPECT_TRUE(dag2->Reaches(slow, point));
}

TEST_F(AcDagTest, FromEdgesComputesClosure) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId c = Pred(3);
  const PredicateId f = Failure();
  auto dag = AcDag::FromEdges(&catalog_, {a, b, c, f},
                              {{a, b}, {b, c}, {c, f}}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag->Reaches(a, c));
  EXPECT_TRUE(dag->Reaches(a, f));
  // The reduction keeps only direct edges.
  EXPECT_EQ(dag->Children(a), (std::vector<PredicateId>{b}));
  EXPECT_EQ(dag->Parents(c), (std::vector<PredicateId>{b}));
}

TEST_F(AcDagTest, FromEdgesRejectsCycles) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId f = Failure();
  EXPECT_FALSE(
      AcDag::FromEdges(&catalog_, {a, b, f}, {{a, b}, {b, a}, {a, f}}, f).ok());
}

TEST_F(AcDagTest, FromEdgesRejectsUnknownEndpointsAndSelfLoops) {
  const PredicateId a = Pred(1);
  const PredicateId gap = Pred(2);  // interned, inside the id range, no node
  const PredicateId f = Failure();
  ASSERT_LT(a, gap);
  ASSERT_LT(gap, f);
  using Edges = std::vector<std::pair<PredicateId, PredicateId>>;
  auto code = [&](const std::vector<PredicateId>& nodes, const Edges& edges) {
    return AcDag::FromEdges(&catalog_, nodes, edges, f).status().code();
  };
  EXPECT_EQ(code({a, f}, {{a, 999}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({a, f}, {{a, -3}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({a, f}, {{a, a}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({a, f}, {{a, gap}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({a, f}, {{gap, f}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({-3, a, f}, {{a, f}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({-3, a, f}, {{-3, f}, {a, f}}), StatusCode::kInvalidArgument);
}

TEST_F(AcDagTest, MaskKeepsInducedClosure) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId c = Pred(3);
  const PredicateId f = Failure();
  auto dag = AcDag::FromEdges(&catalog_, {a, b, c, f},
                              {{a, b}, {b, c}, {c, f}}, f);
  ASSERT_TRUE(dag.ok());
  const AcDag::NodeMask mask = dag->MaskOf({a, c, f});
  EXPECT_EQ(dag->MaskMembers(mask), (std::vector<PredicateId>{a, c, f}));
  // a reaches c via the masked-out b: the induced closure keeps the edge,
  // so the masked layering is the chain a, c, f.
  EXPECT_EQ(dag->TopoLevels(mask),
            (std::vector<std::vector<PredicateId>>{{a}, {c}, {f}}));
  EXPECT_TRUE(dag->FirstJunction(mask).empty());
  AcDag::NodeMask below_a(mask.size());
  const auto desc = dag->DescendantMask(a);
  for (size_t w = 0; w < mask.size(); ++w) below_a[w] = desc[w] & mask[w];
  EXPECT_EQ(dag->MaskMembers(below_a), (std::vector<PredicateId>{c, f}));
}

TEST_F(AcDagTest, DescendantsAndLevels) {
  // Diamond: a -> {b, c} -> d -> f.
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId c = Pred(3);
  const PredicateId d = Pred(4);
  const PredicateId f = Failure();
  auto dag = AcDag::FromEdges(&catalog_, {a, b, c, d, f},
                              {{a, b}, {a, c}, {b, d}, {c, d}, {d, f}}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->Descendants(a).size(), 4u);
  EXPECT_EQ(dag->Descendants(d).size(), 1u);
  const auto levels = dag->TopoLevels();
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_EQ(levels[0], (std::vector<PredicateId>{a}));
  EXPECT_EQ(levels[1].size(), 2u);  // the junction {b, c}
  EXPECT_EQ(levels[2], (std::vector<PredicateId>{d}));
}

TEST_F(AcDagTest, FirstJunctionOfDiamondIsItsMiddle) {
  // Diamond: a -> {b, c} -> d -> f.
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId c = Pred(3);
  const PredicateId d = Pred(4);
  const PredicateId f = Failure();
  auto dag = AcDag::FromEdges(&catalog_, {a, b, c, d, f},
                              {{a, b}, {a, c}, {b, d}, {c, d}, {d, f}}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->FirstJunction(dag->MaskOf(dag->nodes())),
            (std::vector<PredicateId>{b, c}));
  // Without F the junction is the same; {F} alone has none.
  EXPECT_EQ(dag->FirstJunction(dag->MaskOf({a, b, c, d})),
            (std::vector<PredicateId>{b, c}));
  EXPECT_TRUE(dag->FirstJunction(dag->MaskOf({f})).empty());
}

TEST_F(AcDagTest, FirstJunctionBehindMaskedOutNode) {
  // a -> b -> {c, d} -> f with b masked out: a still reaches c and d
  // through the closure, so the junction is {c, d}, after the chain {a}.
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId c = Pred(3);
  const PredicateId d = Pred(4);
  const PredicateId f = Failure();
  auto dag = AcDag::FromEdges(&catalog_, {a, b, c, d, f},
                              {{a, b}, {b, c}, {b, d}, {c, f}, {d, f}}, f);
  ASSERT_TRUE(dag.ok());
  const AcDag::NodeMask mask = dag->MaskOf({a, c, d, f});
  EXPECT_EQ(dag->FirstJunction(mask), (std::vector<PredicateId>{c, d}));
  EXPECT_EQ(dag->TopoLevels(mask)[1], (std::vector<PredicateId>{c, d}));
}

TEST_F(AcDagTest, FirstJunctionOfChainIsEmpty) {
  const PredicateId a = Pred(1);
  const PredicateId b = Pred(2);
  const PredicateId c = Pred(3);
  const PredicateId f = Failure();
  auto dag = AcDag::FromEdges(&catalog_, {a, b, c, f},
                              {{a, b}, {b, c}, {c, f}}, f);
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag->FirstJunction(dag->MaskOf(dag->nodes())).empty());
  EXPECT_TRUE(dag->FirstJunction(dag->MaskOf({a, c})).empty());
  EXPECT_TRUE(dag->FirstJunction(dag->MaskOf({})).empty());
}

TEST_F(AcDagTest, ToDotMentionsEveryNode) {
  const PredicateId a = Pred(1);
  const PredicateId f = Failure();
  auto dag = AcDag::FromEdges(&catalog_, {a, f}, {{a, f}}, f);
  ASSERT_TRUE(dag.ok());
  const std::string dot = dag->ToDot(nullptr, nullptr);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("doubleoctagon"), std::string::npos);  // failure node
}

// Property: the Build() relation is transitively closed and acyclic for
// random fully-discriminative logs.
class AcDagPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AcDagPropertyTest, ClosureIsTransitiveAndAcyclic) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  PredicateCatalog catalog;
  std::vector<PredicateId> preds;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    preds.push_back(catalog.Intern(
        Predicate{.kind = PredKind::kSynthetic, .occurrence = i}));
  }
  const PredicateId f = catalog.Intern(Predicate{.kind = PredKind::kFailure});

  // Several failed logs with random times; F always last.
  std::vector<PredicateLog> logs;
  for (int r = 0; r < 4; ++r) {
    PredicateLog log;
    log.failed = true;
    for (PredicateId id : preds) {
      const Tick t = static_cast<Tick>(rng.Uniform(50));
      log.observed[id] = {t, t};
    }
    log.observed[f] = {100, 100};
    logs.push_back(std::move(log));
  }
  std::vector<PredicateId> candidates = preds;
  candidates.push_back(f);
  auto dag = AcDag::Build(&catalog, logs, candidates, f);
  ASSERT_TRUE(dag.ok());

  // Transitivity of Reaches over the surviving nodes.
  for (PredicateId x : dag->nodes()) {
    EXPECT_FALSE(dag->Reaches(x, x));
    for (PredicateId y : dag->nodes()) {
      for (PredicateId z : dag->nodes()) {
        if (dag->Reaches(x, y) && dag->Reaches(y, z)) {
          EXPECT_TRUE(dag->Reaches(x, z));
        }
      }
      if (x != y && dag->Reaches(x, y)) {
        EXPECT_FALSE(dag->Reaches(y, x));  // antisymmetry
      }
    }
  }
  // TopoOrder is consistent with Reaches.
  const auto order = dag->TopoOrder();
  for (size_t i = 0; i < order.size(); ++i) {
    for (size_t j = i + 1; j < order.size(); ++j) {
      EXPECT_FALSE(dag->Reaches(order[j], order[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcDagPropertyTest, ::testing::Range(1, 16));

// Differential test: the word-packed AC-DAG against a naive
// vector<vector<bool>> reference, on random DAGs whose sizes straddle the
// 64-bit word boundaries.

using Matrix = std::vector<std::vector<bool>>;

void CloseNaive(Matrix& m) {
  const size_t n = m.size();
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!m[i][k]) continue;
      for (size_t j = 0; j < n; ++j) {
        if (m[k][j]) m[i][j] = true;
      }
    }
  }
}

/// The reference DAG: nodes ascending, closure[i][j] iff nodes[i] ; nodes[j].
struct NaiveDag {
  std::vector<PredicateId> nodes;
  Matrix closure;

  /// Keeps the sorted `all` nodes of the closed `relation` that reach
  /// `failure`.
  NaiveDag(const std::vector<PredicateId>& all, const Matrix& relation,
           PredicateId failure) {
    const size_t n = all.size();
    size_t f = 0;
    while (all[f] != failure) ++f;
    std::vector<size_t> keep;
    for (size_t i = 0; i < n; ++i) {
      if (i == f || relation[i][f]) keep.push_back(i);
    }
    for (size_t a : keep) {
      nodes.push_back(all[a]);
      closure.emplace_back();
      for (size_t b : keep) closure.back().push_back(relation[a][b]);
    }
  }

  size_t IndexOf(PredicateId id) const {
    return static_cast<size_t>(
        std::find(nodes.begin(), nodes.end(), id) - nodes.begin());
  }
  size_t EdgeCount() const {
    size_t count = 0;
    for (const auto& row : closure) {
      count += static_cast<size_t>(std::count(row.begin(), row.end(), true));
    }
    return count;
  }
  /// Min-id Kahn order: repeatedly take the smallest unplaced node whose
  /// closure parents are all placed.
  std::vector<PredicateId> TopoOrder() const {
    const size_t n = nodes.size();
    std::vector<bool> placed(n, false);
    std::vector<PredicateId> order;
    while (order.size() < n) {
      for (size_t v = 0; v < n; ++v) {
        if (placed[v]) continue;
        bool ready = true;
        for (size_t u = 0; u < n && ready; ++u) {
          ready = placed[u] || !closure[u][v];
        }
        if (ready) {
          placed[v] = true;
          order.push_back(nodes[v]);
          break;
        }
      }
    }
    return order;
  }
  std::vector<std::vector<PredicateId>> TopoLevels(
      const std::vector<bool>& in) const {
    std::vector<int> level(nodes.size(), 0);
    int max_level = 0;
    for (PredicateId id : TopoOrder()) {
      const size_t v = IndexOf(id);
      if (!in[v]) continue;
      for (size_t u = 0; u < nodes.size(); ++u) {
        if (in[u] && closure[u][v]) level[v] = std::max(level[v], level[u] + 1);
      }
      max_level = std::max(max_level, level[v]);
    }
    std::vector<std::vector<PredicateId>> levels(
        static_cast<size_t>(max_level) + 1);
    for (size_t v = 0; v < nodes.size(); ++v) {
      if (in[v]) levels[static_cast<size_t>(level[v])].push_back(nodes[v]);
    }
    return levels;
  }
  /// The first level of TopoLevels(in) with two or more members once the
  /// failure is erased.
  std::vector<PredicateId> FirstJunction(const std::vector<bool>& in,
                                         PredicateId failure) const {
    for (std::vector<PredicateId>& level : TopoLevels(in)) {
      std::erase(level, failure);
      if (level.size() >= 2) return level;
    }
    return {};
  }
  std::vector<PredicateId> Children(size_t i) const {
    std::vector<PredicateId> out;
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (!closure[i][j]) continue;
      bool mediated = false;
      for (size_t k = 0; k < nodes.size() && !mediated; ++k) {
        mediated = closure[i][k] && closure[k][j];
      }
      if (!mediated) out.push_back(nodes[j]);
    }
    return out;
  }
};

struct RandomDag {
  PredicateCatalog catalog;
  std::vector<PredicateId> nodes;  ///< ascending, failure included
  PredicateId failure = kInvalidPredicate;
  std::vector<std::pair<PredicateId, PredicateId>> edges;
};

/// `n` nodes (failure included) under a random hidden order, so ids and
/// topological positions disagree. Every predicate feeds the failure when
/// `all_reach`; otherwise about one in five gets no edge of its own to it.
/// When `gapped`, predicates that are not nodes are interned too (at id 0,
/// before about one node in three, and after the last node), so node ids
/// skip values; they are returned in `gaps`.
RandomDag MakeRandomDag(size_t n, uint64_t seed, bool all_reach, bool gapped,
                        std::vector<PredicateId>* gaps = nullptr) {
  Rng rng(seed);
  RandomDag g;
  auto intern_gap = [&] {
    const PredicateId gap = g.catalog.Intern(Predicate{
        .kind = PredKind::kSynthetic,
        .occurrence = -1 - static_cast<int>(g.catalog.size())});
    if (gaps != nullptr) gaps->push_back(gap);
  };
  if (gapped) intern_gap();
  for (size_t i = 0; i + 1 < n; ++i) {
    if (gapped && rng.Uniform(3) == 0) intern_gap();
    if (i == n / 2) {
      g.failure = g.catalog.Intern(Predicate{.kind = PredKind::kFailure});
      g.nodes.push_back(g.failure);
    }
    g.nodes.push_back(g.catalog.Intern(Predicate{
        .kind = PredKind::kSynthetic, .occurrence = static_cast<int>(i)}));
  }
  if (g.failure == kInvalidPredicate) {
    g.failure = g.catalog.Intern(Predicate{.kind = PredKind::kFailure});
    g.nodes.push_back(g.failure);
  }
  if (gapped) intern_gap();
  std::sort(g.nodes.begin(), g.nodes.end());
  std::vector<PredicateId> hidden;
  for (PredicateId id : g.nodes) {
    if (id != g.failure) hidden.push_back(id);
  }
  rng.Shuffle(hidden);
  const uint64_t fanout = 3;
  for (size_t a = 0; a < hidden.size(); ++a) {
    for (size_t b = a + 1; b < hidden.size(); ++b) {
      if (rng.Uniform(hidden.size()) < fanout) {
        g.edges.emplace_back(hidden[a], hidden[b]);
      }
    }
    if (all_reach || rng.Uniform(5) != 0) {
      g.edges.emplace_back(hidden[a], g.failure);
    }
  }
  return g;
}

Matrix EdgeMatrix(const RandomDag& g) {
  Matrix m(g.nodes.size(), std::vector<bool>(g.nodes.size(), false));
  auto index = [&](PredicateId id) {
    return static_cast<size_t>(
        std::lower_bound(g.nodes.begin(), g.nodes.end(), id) - g.nodes.begin());
  };
  for (const auto& [from, to] : g.edges) m[index(from)][index(to)] = true;
  CloseNaive(m);
  return m;
}

void ExpectSameDag(const AcDag& dag, const NaiveDag& ref, Rng& rng) {
  ASSERT_EQ(dag.nodes(), ref.nodes);
  const size_t n = ref.nodes.size();
  EXPECT_EQ(dag.words(), (n + 63) / 64);
  EXPECT_EQ(dag.EdgeCount(), ref.EdgeCount());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(dag.Reaches(ref.nodes[i], ref.nodes[j]), ref.closure[i][j])
          << ref.nodes[i] << " ; " << ref.nodes[j];
    }
  }
  const std::vector<PredicateId> order = ref.TopoOrder();
  EXPECT_EQ(dag.TopoOrder(), order);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    EXPECT_EQ(dag.TopoPosition(order[pos]), static_cast<int>(pos));
  }
  EXPECT_EQ(dag.TopoLevels(), ref.TopoLevels(std::vector<bool>(n, true)));
  EXPECT_EQ(dag.FirstJunction(dag.MaskOf(ref.nodes)),
            ref.FirstJunction(std::vector<bool>(n, true), dag.failure()));
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<bool> in(n);
    std::vector<PredicateId> ids;
    for (size_t i = 0; i < n; ++i) {
      in[i] = rng.Uniform(2) == 0;
      if (in[i]) ids.push_back(ref.nodes[i]);
    }
    const AcDag::NodeMask mask = dag.MaskOf(ids);
    EXPECT_EQ(dag.MaskMembers(mask), ids);
    EXPECT_EQ(dag.TopoLevels(mask), ref.TopoLevels(in));
    EXPECT_EQ(dag.FirstJunction(mask), ref.FirstJunction(in, dag.failure()));
  }
  // A node and its descendants: that node is a single-member first level,
  // so the junction (if any) lies below it.
  for (size_t pos = 0; pos < std::min<size_t>(order.size(), 3); ++pos) {
    const size_t v = ref.IndexOf(order[pos]);
    std::vector<bool> in = ref.closure[v];
    in[v] = true;
    AcDag::NodeMask mask(dag.DescendantMask(order[pos]).begin(),
                         dag.DescendantMask(order[pos]).end());
    dag.AddToMask(order[pos], mask);
    EXPECT_EQ(dag.FirstJunction(mask), ref.FirstJunction(in, dag.failure()));
  }
  std::vector<std::vector<PredicateId>> children(n);
  std::vector<std::vector<PredicateId>> parents(n);
  for (size_t i = 0; i < n; ++i) {
    children[i] = ref.Children(i);
    for (PredicateId c : children[i]) {
      parents[ref.IndexOf(c)].push_back(ref.nodes[i]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    std::vector<PredicateId> desc;
    for (size_t j = 0; j < n; ++j) {
      if (ref.closure[i][j]) desc.push_back(ref.nodes[j]);
    }
    EXPECT_EQ(dag.Descendants(ref.nodes[i]), desc);
    EXPECT_EQ(dag.Children(ref.nodes[i]), children[i]);
    EXPECT_EQ(dag.Parents(ref.nodes[i]), parents[i]);
  }
}

class AcDagDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool, bool>> {};

TEST_P(AcDagDifferentialTest, FromEdgesMatchesNaiveReference) {
  const auto [n, all_reach, gapped] = GetParam();
  std::vector<PredicateId> gaps;
  const RandomDag g = MakeRandomDag(n, 1000 + n, all_reach, gapped, &gaps);
  // The nodes in any order, one repeated: the builder sorts and dedups.
  std::vector<PredicateId> input = g.nodes;
  Rng shuffle(n + 1);
  shuffle.Shuffle(input);
  input.push_back(input.front());
  auto dag = AcDag::FromEdges(&g.catalog, input, g.edges, g.failure);
  ASSERT_TRUE(dag.ok()) << dag.status();
  const NaiveDag ref(g.nodes, EdgeMatrix(g), g.failure);
  if (all_reach) EXPECT_EQ(ref.nodes.size(), n);
  Rng rng(n);
  ExpectSameDag(*dag, ref, rng);
  // An interned id that is not a node is neither a member nor an endpoint.
  for (PredicateId gap : gaps) {
    EXPECT_FALSE(dag->Contains(gap));
    std::vector<std::pair<PredicateId, PredicateId>> edges = g.edges;
    edges.emplace_back(gap, g.failure);
    EXPECT_EQ(AcDag::FromEdges(&g.catalog, g.nodes, edges, g.failure)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << gap;
  }
}

TEST_P(AcDagDifferentialTest, BuildMatchesNaiveReference) {
  const auto [n, all_reach, gapped] = GetParam();
  std::vector<PredicateId> gaps;
  const RandomDag g = MakeRandomDag(n, 3000 + n, all_reach, gapped, &gaps);
  // Failed logs with coarse random times (ties are common), the failure
  // last; about one predicate in eight is never observed (it co-occurs with
  // nothing, so it gets no edge and is dropped). A successful log with
  // reversed times must be ignored.
  Rng rng(n + 2);
  std::vector<PredicateId> observed;
  for (PredicateId id : g.nodes) {
    if (id != g.failure && rng.Uniform(8) != 0) observed.push_back(id);
  }
  std::vector<PredicateLog> logs;
  const Tick end = static_cast<Tick>(n + 1);
  for (int r = 0; r < 5; ++r) {
    PredicateLog log;
    log.failed = true;
    for (PredicateId id : observed) {
      const Tick t = static_cast<Tick>(rng.Uniform(n / 4 + 1));
      log.observed[id] = {t, t};
    }
    log.observed[g.failure] = {end, end};
    // Predicates that are not candidates are observed too, and ignored.
    for (PredicateId gap : gaps) {
      const Tick t = static_cast<Tick>(rng.Uniform(n / 4 + 1));
      log.observed[gap] = {t, t};
    }
    logs.push_back(std::move(log));
  }
  PredicateLog success;
  for (PredicateId id : observed) {
    const Tick t = end - static_cast<Tick>(logs[0].observed[id].start);
    success.observed[id] = {t, t};
  }
  logs.push_back(std::move(success));
  auto dag = AcDag::Build(&g.catalog, logs, g.nodes, g.failure);
  ASSERT_TRUE(dag.ok()) << dag.status();

  // The rule: i -> j iff both co-occur in some failed log and i's time is
  // strictly earlier in every failed log observing both.
  const size_t m = g.nodes.size();
  Matrix precedes(m, std::vector<bool>(m, true));
  Matrix co(m, std::vector<bool>(m, false));
  for (const PredicateLog& log : logs) {
    if (!log.failed) continue;
    for (size_t i = 0; i < m; ++i) {
      auto a = log.observed.find(g.nodes[i]);
      if (a == log.observed.end()) continue;
      for (size_t j = 0; j < m; ++j) {
        auto b = log.observed.find(g.nodes[j]);
        if (i == j || b == log.observed.end()) continue;
        co[i][j] = true;
        if (a->second.start >= b->second.start) precedes[i][j] = false;
      }
    }
  }
  Matrix relation(m, std::vector<bool>(m, false));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) relation[i][j] = co[i][j] && precedes[i][j];
  }
  const NaiveDag ref(g.nodes, relation, g.failure);
  ExpectSameDag(*dag, ref, rng);
}

INSTANTIATE_TEST_SUITE_P(
    WordBoundaries, AcDagDifferentialTest,
    ::testing::Combine(::testing::Values<size_t>(1, 63, 64, 65, 130, 300),
                       ::testing::Bool(), ::testing::Bool()));

TEST(AcDagKahnOrderTest, NodeFreedBelowTheScanIsTakenNext) {
  // 140 predicates in three words, then the failure (index 140). p100
  // (word 1) is p3's only parent and p130 (word 2) is p5's, so popping
  // either frees a node in word 0 while higher-index nodes are still
  // ready: min-index order must go back for it before p101 and p131.
  RandomDag g;
  std::vector<PredicateId> p;
  for (int i = 0; i < 140; ++i) {
    p.push_back(g.catalog.Intern(
        Predicate{.kind = PredKind::kSynthetic, .occurrence = i}));
  }
  g.failure = g.catalog.Intern(Predicate{.kind = PredKind::kFailure});
  g.nodes = p;
  g.nodes.push_back(g.failure);
  g.edges = {{p[100], p[3]}, {p[130], p[5]}};
  for (PredicateId id : p) g.edges.emplace_back(id, g.failure);
  auto dag = AcDag::FromEdges(&g.catalog, g.nodes, g.edges, g.failure);
  ASSERT_TRUE(dag.ok()) << dag.status();

  std::vector<PredicateId> expected;
  for (int i = 0; i < 140; ++i) {
    if (i == 3 || i == 5) continue;
    expected.push_back(p[static_cast<size_t>(i)]);
    if (i == 100) expected.push_back(p[3]);
    if (i == 130) expected.push_back(p[5]);
  }
  expected.push_back(g.failure);
  EXPECT_EQ(dag->TopoOrder(), expected);
  EXPECT_EQ(dag->TopoOrder(),
            NaiveDag(g.nodes, EdgeMatrix(g), g.failure).TopoOrder());
}

}  // namespace
}  // namespace aid
