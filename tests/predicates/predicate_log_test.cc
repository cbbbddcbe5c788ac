// Differential tests of ObservationSet, the dense predicate-log container,
// against a std::map reference: seeded random operation sequences (in-order
// and out-of-order inserts, the extractor's keep-earliest-start update,
// erase, find, at, Has) over ids that straddle 64-bit word boundaries, plus
// a check that EncodePredicateLog writes exactly the bytes of the sort-then-
// write encoding the checkpoint format and the VERDICT frame were defined by,
// and that the bulk AssignSorted builds the same set as inserting each entry.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "predicates/predicate.h"
#include "trace/serialize.h"

namespace aid {
namespace {

using Reference = std::map<PredicateId, PredicateObservation>;

/// Ids at and around the word boundaries of the occurrence bitset.
constexpr PredicateId kBoundaryIds[] = {0, 1, 62, 63, 64, 65, 126, 127, 128, 129};

void ExpectSame(const ObservationSet& set, const Reference& ref) {
  ASSERT_EQ(set.size(), ref.size());
  EXPECT_EQ(set.empty(), ref.empty());
  auto it = ref.begin();
  for (const auto& [id, obs] : set) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(id, it->first);
    EXPECT_EQ(obs, it->second) << "id " << id;
    ++it;
  }
}

/// The encoding as originally specified over a hashed observation map: copy
/// the observations out, sort them by id, then write them.
std::string SortThenWriteEncoding(bool failed, TrialOutcome outcome,
                                  const Reference& ref) {
  const std::unordered_map<PredicateId, PredicateObservation> hashed(
      ref.begin(), ref.end());
  std::vector<std::pair<PredicateId, PredicateObservation>> obs(
      hashed.begin(), hashed.end());
  std::sort(obs.begin(), obs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  WireWriter writer;
  writer.U8(failed ? 1 : 0);
  writer.U8(static_cast<uint8_t>(outcome));
  writer.U32(static_cast<uint32_t>(obs.size()));
  for (const auto& [id, o] : obs) {
    writer.I32(id);
    writer.I64(o.start);
    writer.I64(o.end);
  }
  return writer.Release();
}

PredicateId RandomId(Rng& rng, PredicateId max_id) {
  if (rng.Bernoulli(0.3)) {
    return kBoundaryIds[rng.Uniform(std::size(kBoundaryIds))];
  }
  return static_cast<PredicateId>(rng.UniformRange(0, max_id));
}

PredicateObservation RandomWindow(Rng& rng) {
  const Tick start = rng.UniformRange(-50, 50);
  return {start, start + rng.UniformRange(0, 20)};
}

TEST(ObservationSetTest, MatchesAMapUnderRandomOperations) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const PredicateId max_id =
        static_cast<PredicateId>(rng.UniformRange(1, 300));
    ObservationSet set;
    Reference ref;
    PredicateId next_in_order = 0;
    for (int step = 0; step < 400; ++step) {
      const uint64_t op = rng.Uniform(6);
      if (op == 0) {
        // In-order insert: an append.
        const PredicateObservation w = RandomWindow(rng);
        next_in_order += static_cast<PredicateId>(rng.UniformRange(1, 70));
        if (!ref.empty()) {
          next_in_order = std::max(next_in_order, ref.rbegin()->first + 1);
        }
        set[next_in_order] = w;
        ref[next_in_order] = w;
      } else if (op == 1) {
        // Arbitrary insert or overwrite.
        const PredicateId id = RandomId(rng, max_id);
        const PredicateObservation w = RandomWindow(rng);
        set[id] = w;
        ref[id] = w;
      } else if (op == 2) {
        // The extractor's Register: keep the earliest start.
        const PredicateId id = RandomId(rng, max_id);
        const PredicateObservation w = RandomWindow(rng);
        if (!set.Has(id)) {
          set[id] = w;
        } else if (w.start < set[id].start) {
          set[id] = w;
        }
        auto it = ref.find(id);
        if (it == ref.end() || w.start < it->second.start) ref[id] = w;
      } else if (op == 3) {
        const PredicateId id = RandomId(rng, max_id);
        EXPECT_EQ(set.erase(id), ref.erase(id)) << "erase " << id;
      } else {
        const PredicateId id = RandomId(rng, max_id);
        const auto ref_it = ref.find(id);
        const auto it = set.find(id);
        ASSERT_EQ(it == set.end(), ref_it == ref.end()) << "find " << id;
        EXPECT_EQ(set.Has(id), ref_it != ref.end()) << "Has " << id;
        if (ref_it != ref.end()) {
          EXPECT_EQ(it->first, id);
          EXPECT_EQ(it->second, ref_it->second);
          EXPECT_EQ(set.at(id), ref_it->second);
        }
      }
      ExpectSame(set, ref);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ObservationSetTest, HasRejectsNegativeAbsentAndPastTheEndIds) {
  ObservationSet set;
  EXPECT_FALSE(set.Has(0));
  EXPECT_FALSE(set.Has(-1));
  EXPECT_EQ(set.find(0), set.end());
  for (PredicateId id : {63, 64, 127, 128}) set[id] = {id, id};
  EXPECT_FALSE(set.Has(-1));
  EXPECT_FALSE(set.Has(kInvalidPredicate));
  EXPECT_FALSE(set.Has(-64));
  EXPECT_FALSE(set.Has(std::numeric_limits<PredicateId>::min()));
  for (PredicateId id : {0, 62, 65, 126, 129}) EXPECT_FALSE(set.Has(id)) << id;
  for (PredicateId id : {63, 64, 127, 128}) EXPECT_TRUE(set.Has(id)) << id;
  // Past the end of the bitset's last word.
  EXPECT_FALSE(set.Has(192));
  EXPECT_FALSE(set.Has(std::numeric_limits<PredicateId>::max()));
  EXPECT_EQ(set.find(std::numeric_limits<PredicateId>::max()), set.end());
  EXPECT_EQ(set.erase(1000), 0u);

  // Erasing clears exactly one bit, keeping its word neighbours.
  EXPECT_EQ(set.erase(64), 1u);
  EXPECT_FALSE(set.Has(64));
  EXPECT_TRUE(set.Has(63));
  EXPECT_TRUE(set.Has(127));
  EXPECT_EQ(set.size(), 3u);
}

TEST(ObservationSetTest, OutOfOrderInsertsKeepIdOrder) {
  ObservationSet set;
  for (PredicateId id : {128, 0, 127, 64, 63, 129, 1}) set[id] = {id, id};
  std::vector<PredicateId> ids;
  for (const auto& [id, obs] : set) ids.push_back(id);
  EXPECT_EQ(ids, (std::vector<PredicateId>{0, 1, 63, 64, 127, 128, 129}));
  // operator[] on a present id returns the stored window, not a new entry.
  set[63].end = 99;
  EXPECT_EQ(set.at(63), (PredicateObservation{63, 99}));
  EXPECT_EQ(set.size(), 7u);
}

TEST(ObservationSetTest, EncodingMatchesSortThenWrite) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    PredicateLog log;
    log.failed = rng.Bernoulli(0.5);
    log.outcome = static_cast<TrialOutcome>(rng.Uniform(3));
    Reference ref;
    const int n = static_cast<int>(rng.UniformRange(0, 120));
    for (int i = 0; i < n; ++i) {
      const PredicateId id = RandomId(rng, 400);
      const PredicateObservation w = RandomWindow(rng);
      log.observed[id] = w;
      ref[id] = w;
    }
    WireWriter writer;
    EncodePredicateLog(log, writer);
    const std::string bytes = writer.Release();
    EXPECT_EQ(bytes, SortThenWriteEncoding(log.failed, log.outcome, ref));

    WireReader reader(bytes);
    auto decoded = DecodePredicateLog(reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->failed, log.failed);
    EXPECT_EQ(decoded->outcome, log.outcome);
    ExpectSame(decoded->observed, ref);
    EXPECT_TRUE(decoded->observed == log.observed);
  }
}

/// Compares a set built by AssignSorted with one built by operator[]: the
/// entries, Has for every id up to past the bitset's last word, find and
/// at, and the encoded bytes.
void ExpectSameSet(const ObservationSet& bulk, const ObservationSet& built) {
  EXPECT_TRUE(bulk == built);
  ASSERT_EQ(bulk.size(), built.size());
  EXPECT_EQ(bulk.empty(), built.empty());
  const PredicateId top = built.empty() ? 0 : std::prev(built.end())->first;
  for (PredicateId id = -2; id <= top + 130; ++id) {
    ASSERT_EQ(bulk.Has(id), built.Has(id)) << "Has " << id;
    ASSERT_EQ(bulk.find(id) == bulk.end(), built.find(id) == built.end())
        << "find " << id;
    if (built.Has(id)) {
      EXPECT_EQ(bulk.find(id)->first, id);
      EXPECT_EQ(bulk.at(id), built.at(id)) << "at " << id;
    }
  }
  for (PredicateId id : {std::numeric_limits<PredicateId>::min(),
                         std::numeric_limits<PredicateId>::max()}) {
    EXPECT_FALSE(bulk.Has(id)) << id;
    EXPECT_EQ(bulk.find(id), bulk.end()) << id;
  }
  PredicateLog bulk_log;
  bulk_log.observed = bulk;
  PredicateLog built_log;
  built_log.observed = built;
  WireWriter bulk_bytes;
  EncodePredicateLog(bulk_log, bulk_bytes);
  WireWriter built_bytes;
  EncodePredicateLog(built_log, built_bytes);
  EXPECT_EQ(bulk_bytes.Release(), built_bytes.Release());
}

TEST(ObservationSetTest, AssignSortedEqualsInsertingEachEntry) {
  // Empty input, on a fresh set and over a filled one.
  ObservationSet empty;
  empty.AssignSorted({});
  ExpectSameSet(empty, ObservationSet());
  ObservationSet cleared;
  for (PredicateId id : {3, 64, 200}) cleared[id] = {id, id};
  cleared.AssignSorted({});
  ExpectSameSet(cleared, ObservationSet());

  // The bitset's word boundaries, alone and together.
  const std::vector<std::vector<PredicateId>> fixed = {
      {0},       {63},      {64},     {127},           {128},
      {63, 64},  {127, 128}, {0, 63, 64, 127, 128}, {62, 65, 126, 129},
      {1, 128},  {64, 127}};
  for (const std::vector<PredicateId>& ids : fixed) {
    SCOPED_TRACE(testing::Message() << "first id " << ids.front() << ", "
                                    << ids.size() << " ids");
    std::vector<ObservationSet::value_type> entries;
    ObservationSet built;
    for (PredicateId id : ids) {
      entries.emplace_back(id, PredicateObservation{id, id + 1});
      built[id] = {id, id + 1};
    }
    ObservationSet bulk;
    bulk.AssignSorted(entries);
    ExpectSameSet(bulk, built);
  }

  // Random sorted subsets over ids that straddle several words, assigned
  // over whatever the set held before.
  ObservationSet reused;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const PredicateId max_id =
        static_cast<PredicateId>(rng.UniformRange(0, 300));
    const double density = rng.Bernoulli(0.5) ? 0.9 : 0.1;
    std::vector<ObservationSet::value_type> entries;
    ObservationSet built;
    for (PredicateId id = 0; id <= max_id; ++id) {
      if (!rng.Bernoulli(density)) continue;
      const PredicateObservation w = RandomWindow(rng);
      entries.emplace_back(id, w);
      built[id] = w;
    }
    reused.AssignSorted(entries);
    ExpectSameSet(reused, built);
    if (HasFatalFailure()) return;
  }
}

TEST(ObservationSetDeathTest, AssignSortedRejectsUnsortedOrNegativeIds) {
  using Entries = std::vector<ObservationSet::value_type>;
  const auto assign = [](Entries entries) {
    ObservationSet set;
    set.AssignSorted(std::move(entries));
  };
  EXPECT_DEATH(assign(Entries{{5, {}}, {3, {}}}), "AID_CHECK");
  EXPECT_DEATH(assign(Entries{{5, {}}, {5, {}}}), "AID_CHECK");
  EXPECT_DEATH(assign(Entries{{-1, {}}, {3, {}}}), "AID_CHECK");
  EXPECT_DEATH(assign(Entries{{-3, {}}}), "AID_CHECK");
  // An id above the last one would index past the bitset.
  EXPECT_DEATH(assign(Entries{{1, {}}, {900, {}}, {2, {}}}), "AID_CHECK");
}

}  // namespace
}  // namespace aid
