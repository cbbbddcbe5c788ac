#include "causal/acdag.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace aid {

namespace {

size_t WordsFor(size_t n) { return (n + 63) / 64; }

bool TestBit(std::span<const uint64_t> row, size_t j) {
  return ((row[j / 64] >> (j % 64)) & 1) != 0;
}

void SetBit(uint64_t* row, size_t j) { row[j / 64] |= uint64_t{1} << (j % 64); }

void ClearBit(uint64_t* row, size_t j) {
  row[j / 64] &= ~(uint64_t{1} << (j % 64));
}

/// Calls f(j) for every set bit j of `row`, ascending.
template <typename F>
void ForEachBit(std::span<const uint64_t> row, F&& f) {
  for (size_t w = 0; w < row.size(); ++w) {
    for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      f(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

/// Kahn's algorithm over n nodes whose successors `for_each_successor(i, f)`
/// passes to f, smallest index first among ready nodes. The ready set is a
/// bitset scanned from `low`, the lowest word that may hold a ready node; a
/// node made ready below it moves `low` back down. Shorter than n iff the
/// relation has a cycle.
template <typename ForEachSuccessor>
std::vector<size_t> KahnOrder(size_t n, ForEachSuccessor&& for_each_successor) {
  std::vector<size_t> indegree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for_each_successor(i, [&](size_t j) { ++indegree[j]; });
  }
  std::vector<uint64_t> ready(WordsFor(n), 0);
  for (size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) SetBit(ready.data(), i);
  }
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t low = 0;;) {
    while (low < ready.size() && ready[low] == 0) ++low;
    if (low == ready.size()) break;
    const size_t i =
        low * 64 + static_cast<size_t>(std::countr_zero(ready[low]));
    ready[low] &= ready[low] - 1;
    order.push_back(i);
    for_each_successor(i, [&](size_t j) {
      if (--indegree[j] != 0) return;
      SetBit(ready.data(), j);
      low = std::min(low, j / 64);
    });
  }
  return order;
}

/// Distinct node ids, ascending, and the table that finds them.
struct DenseNodes {
  std::vector<PredicateId> nodes;
  /// index[id]: the position of `id` in nodes, or -1; dense over
  /// 0..nodes.back().
  std::vector<int> index;
};

/// Sorts and deduplicates `ids` by marking them in a table sized by the
/// largest id, which then serves as the id -> position lookup.
/// InvalidArgument if `failure` is not among them (`what` names the list in
/// the message) or an id is negative.
Result<DenseNodes> IndexNodes(const std::vector<PredicateId>& ids,
                              PredicateId failure, const char* what) {
  if (std::find(ids.begin(), ids.end(), failure) == ids.end()) {
    return Status::InvalidArgument(
        StrFormat("failure predicate must be among the %s", what));
  }
  const auto [lowest, highest] = std::minmax_element(ids.begin(), ids.end());
  if (*lowest < 0) {
    return Status::InvalidArgument("predicate ids must be non-negative");
  }
  DenseNodes out;
  out.index.assign(static_cast<size_t>(*highest) + 1, -1);
  for (PredicateId id : ids) out.index[static_cast<size_t>(id)] = 0;
  for (size_t id = 0; id < out.index.size(); ++id) {
    if (out.index[id] < 0) continue;
    out.index[id] = static_cast<int>(out.nodes.size());
    out.nodes.push_back(static_cast<PredicateId>(id));
  }
  return out;
}

Status CycleError() {
  return Status::InvalidArgument("edges contain a cycle");
}

}  // namespace

Result<AcDag> AcDag::Build(const PredicateCatalog* catalog,
                           const std::vector<PredicateLog>& logs,
                           const std::vector<PredicateId>& candidates,
                           PredicateId failure, const PrecedenceConfig& config) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("catalog must not be null");
  }
  AID_ASSIGN_OR_RETURN(DenseNodes dense,
                       IndexNodes(candidates, failure, "candidates"));
  const std::vector<PredicateId>& nodes = dense.nodes;

  const size_t n = nodes.size();
  const size_t words = WordsFor(n);
  // Row i of co_occurred: the nodes observed together with i at least once.
  // Row i of violated: the nodes j with time(i) >= time(j) in some failed
  // log observing both. The edge i -> j is "co-occurred and never violated":
  // time(i) < time(j) in every failed log where both appear (the paper's
  // rule; fully-discriminative predicates co-occur in every failed log).
  std::vector<uint64_t> co_occurred(n * words, 0);
  std::vector<uint64_t> violated(n * words, 0);

  int failed_logs = 0;
  std::vector<int> observed_in(n, 0);  // failed logs observing node i
  std::vector<std::pair<Tick, size_t>> present;  // (time, node index)
  std::vector<uint64_t> present_mask(words);
  std::vector<uint64_t> not_later(words);
  for (const PredicateLog& log : logs) {
    if (!log.failed) continue;
    ++failed_logs;
    present.clear();
    std::fill(present_mask.begin(), present_mask.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      auto it = log.observed.find(nodes[i]);
      if (it == log.observed.end()) continue;
      present.emplace_back(config.TimeOf(catalog->Get(nodes[i]), it->second),
                           i);
      SetBit(present_mask.data(), i);
      ++observed_in[i];
    }
    for (const auto& [time, i] : present) {
      uint64_t* row = co_occurred.data() + i * words;
      for (size_t w = 0; w < words; ++w) row[w] |= present_mask[w];
    }
    // Walk the observed nodes in time order; each tie group is violated by
    // everything up to and including itself.
    std::sort(present.begin(), present.end());
    std::fill(not_later.begin(), not_later.end(), 0);
    for (size_t g = 0; g < present.size();) {
      size_t end = g;
      while (end < present.size() && present[end].first == present[g].first) {
        SetBit(not_later.data(), present[end].second);
        ++end;
      }
      for (; g < end; ++g) {
        uint64_t* row = violated.data() + present[g].second * words;
        for (size_t w = 0; w < words; ++w) row[w] |= not_later[w];
      }
    }
  }
  if (failed_logs == 0) {
    return Status::InvalidArgument("no failed logs to build the AC-DAG from");
  }
  // A candidate missing from some failed logs would break transitivity:
  // i < j in one log and j < k in another give i -> j and j -> k but no
  // i -> k, since i and k never co-occur. Fully-discriminative predicates
  // are in every failed log; a candidate in none gets no edge and is
  // dropped below.
  for (size_t i = 0; i < n; ++i) {
    if (observed_in[i] != 0 && observed_in[i] != failed_logs) {
      return Status::InvalidArgument(StrFormat(
          "candidate %s is observed in %d of %d failed logs; it must be "
          "observed in all of them or none",
          catalog->Describe(nodes[i], nullptr, nullptr).c_str(),
          observed_in[i], failed_logs));
    }
  }

  // The intersection of per-log strict orders over one node set is a strict
  // partial order: irreflexive (every observed node violates itself),
  // transitive, acyclic. It is its own transitive closure.
  for (size_t k = 0; k < co_occurred.size(); ++k) {
    co_occurred[k] &= ~violated[k];
  }
  std::vector<size_t> order = KahnOrder(n, [&](size_t i, auto&& f) {
    ForEachBit({co_occurred.data() + i * words, words}, f);
  });
  if (order.size() != n) return CycleError();
  return FromClosure(catalog, std::move(dense.nodes), std::move(dense.index),
                     std::move(co_occurred), std::move(order), failure);
}

Result<AcDag> AcDag::FromEdges(
    const PredicateCatalog* catalog, const std::vector<PredicateId>& nodes_in,
    const std::vector<std::pair<PredicateId, PredicateId>>& edges,
    PredicateId failure) {
  AID_ASSIGN_OR_RETURN(DenseNodes dense,
                       IndexNodes(nodes_in, failure, "nodes"));
  const size_t n = dense.nodes.size();
  const size_t words = WordsFor(n);
  const std::vector<int>& index = dense.index;
  auto index_of = [&](PredicateId id) -> size_t {
    return id >= 0 && static_cast<size_t>(id) < index.size() &&
                   index[static_cast<size_t>(id)] >= 0
               ? static_cast<size_t>(index[static_cast<size_t>(id)])
               : n;
  };

  // The direct edges as adjacency lists: node i's children are
  // children[first[i] .. first[i + 1]).
  std::vector<std::pair<size_t, size_t>> indexed;
  indexed.reserve(edges.size());
  std::vector<size_t> first(n + 1, 0);
  for (const auto& [from, to] : edges) {
    const size_t fi = index_of(from);
    const size_t ti = index_of(to);
    if (fi == n || ti == n) {
      return Status::InvalidArgument("edge endpoint not among the nodes");
    }
    if (fi == ti) {
      return Status::InvalidArgument("self-loop edge");
    }
    indexed.emplace_back(fi, ti);
    ++first[fi + 1];
  }
  for (size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<size_t> children(indexed.size());
  std::vector<size_t> next(first.begin(), first.end() - 1);
  for (const auto& [fi, ti] : indexed) children[next[fi]++] = ti;
  auto for_each_child = [&](size_t i, auto&& f) {
    for (size_t k = first[i]; k < first[i + 1]; ++k) f(children[k]);
  };

  // Min-index Kahn gives the same order for a relation and for its
  // closure: a node becomes ready exactly when all its ancestors have been
  // emitted. So the order of the direct edges serves the closure too.
  std::vector<size_t> order = KahnOrder(n, for_each_child);
  if (order.size() != n) return CycleError();
  // Close in reverse topological order: each row is its children plus
  // their already closed rows. A child with no children (the failure, say)
  // has an empty row, so it only sets its own bit.
  std::vector<uint64_t> rows(n * words, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    uint64_t* row = rows.data() + *it * words;
    for_each_child(*it, [&](size_t c) {
      SetBit(row, c);
      if (first[c] == first[c + 1]) return;
      const uint64_t* child = rows.data() + c * words;
      for (size_t w = 0; w < words; ++w) row[w] |= child[w];
    });
  }
  return FromClosure(catalog, std::move(dense.nodes), std::move(dense.index),
                     std::move(rows), std::move(order), failure);
}

Result<AcDag> AcDag::FromClosure(const PredicateCatalog* catalog,
                                 std::vector<PredicateId> nodes,
                                 std::vector<int> index,
                                 std::vector<uint64_t> rows,
                                 std::vector<size_t> order,
                                 PredicateId failure) {
  size_t n = nodes.size();
  size_t words = WordsFor(n);

  // Keep the failure node and every node that reaches it: a predicate with
  // no path to F cannot cause F under the temporal over-approximation.
  const size_t failure_index =
      static_cast<size_t>(index[static_cast<size_t>(failure)]);
  std::vector<size_t> keep;
  for (size_t i = 0; i < n; ++i) {
    if (i == failure_index ||
        TestBit({rows.data() + i * words, words}, failure_index)) {
      keep.push_back(i);
    }
  }
  if (keep.size() != n) {
    std::vector<size_t> new_index(n, n);
    for (size_t a = 0; a < keep.size(); ++a) new_index[keep[a]] = a;
    const size_t kept_words = WordsFor(keep.size());
    std::vector<PredicateId> kept_nodes;
    std::vector<uint64_t> kept_rows(keep.size() * kept_words, 0);
    kept_nodes.reserve(keep.size());
    for (size_t a = 0; a < keep.size(); ++a) {
      kept_nodes.push_back(nodes[keep[a]]);
      uint64_t* kept_row = kept_rows.data() + a * kept_words;
      ForEachBit({rows.data() + keep[a] * words, words}, [&](size_t j) {
        if (new_index[j] != n) SetBit(kept_row, new_index[j]);
      });
    }
    // The kept set is closed under ancestors (a node reaching a kept node
    // reaches F), so restricting the order to it gives the kept subgraph's
    // own min-index Kahn order: nothing outside it was ever ready in place
    // of a kept node's ancestor.
    std::erase_if(order, [&](size_t i) { return new_index[i] == n; });
    for (size_t& i : order) i = new_index[i];
    for (size_t i = 0; i < n; ++i) {
      index[static_cast<size_t>(nodes[i])] =
          new_index[i] == n ? -1 : static_cast<int>(new_index[i]);
    }
    nodes = std::move(kept_nodes);
    rows = std::move(kept_rows);
    n = nodes.size();
    words = kept_words;
  }

  AcDag dag;
  dag.catalog_ = catalog;
  dag.failure_ = failure;
  dag.words_ = words;
  dag.index_ = std::move(index);
  dag.topo_order_.reserve(n);
  dag.topo_pos_.resize(n);
  for (size_t pos = 0; pos < n; ++pos) {
    dag.topo_order_.push_back(nodes[order[pos]]);
    dag.topo_pos_[order[pos]] = static_cast<int>(pos);
  }
  dag.nodes_ = std::move(nodes);
  dag.rows_ = std::move(rows);
  return dag;
}

size_t AcDag::EdgeCount() const {
  size_t count = 0;
  for (uint64_t word : rows_) count += static_cast<size_t>(std::popcount(word));
  return count;
}

void AcDag::BuildReduction() const {
  if (reduction_built_) return;
  const size_t n = nodes_.size();
  children_.assign(n, {});
  parents_.assign(n, {});
  // (i, j) is a reduction edge iff no k mediates i ; k ; j: row(i) minus
  // the union of its members' rows. Ascending i and j keep both lists
  // sorted.
  std::vector<uint64_t> direct(words_);
  for (size_t i = 0; i < n; ++i) {
    const std::span<const uint64_t> row = Row(i);
    direct.assign(row.begin(), row.end());
    ForEachBit(row, [&](size_t k) {
      const std::span<const uint64_t> mediated = Row(k);
      for (size_t w = 0; w < words_; ++w) direct[w] &= ~mediated[w];
    });
    ForEachBit(direct, [&](size_t j) {
      children_[i].push_back(nodes_[j]);
      parents_[j].push_back(nodes_[i]);
    });
  }
  reduction_built_ = true;
}

int AcDag::IndexOf(PredicateId id) const {
  AID_CHECK(Contains(id));
  return index_[static_cast<size_t>(id)];
}

bool AcDag::Reaches(PredicateId from, PredicateId to) const {
  return TestBit(DescendantMask(from), static_cast<size_t>(IndexOf(to)));
}

const std::vector<PredicateId>& AcDag::Children(PredicateId id) const {
  BuildReduction();
  return children_[static_cast<size_t>(IndexOf(id))];
}

const std::vector<PredicateId>& AcDag::Parents(PredicateId id) const {
  BuildReduction();
  return parents_[static_cast<size_t>(IndexOf(id))];
}

AcDag::NodeMask AcDag::MaskOf(const std::vector<PredicateId>& ids) const {
  NodeMask mask(words_, 0);
  for (PredicateId id : ids) AddToMask(id, mask);
  return mask;
}

void AcDag::AddToMask(PredicateId id, NodeMask& mask) const {
  AID_CHECK(mask.size() == words_);
  SetBit(mask.data(), static_cast<size_t>(IndexOf(id)));
}

std::vector<PredicateId> AcDag::MaskMembers(
    std::span<const uint64_t> mask) const {
  std::vector<PredicateId> out;
  AppendMaskMembers(mask, out);
  return out;
}

void AcDag::AppendMaskMembers(std::span<const uint64_t> mask,
                              std::vector<PredicateId>& out) const {
  AID_CHECK(mask.size() == words_);
  ForEachBit(mask, [&](size_t j) { out.push_back(nodes_[j]); });
}

std::vector<std::vector<PredicateId>> AcDag::TopoLevels(
    std::span<const uint64_t> mask) const {
  // Longest-path layering pushed along closure rows in topological order:
  // the longest chain below a node has the same length whether counted over
  // the reduction or the closure, and restricting the closure to the mask
  // is the induced subgraph's closure.
  AID_CHECK(mask.size() == words_);
  std::vector<int> level(nodes_.size(), 0);
  int max_level = 0;
  for (PredicateId id : topo_order_) {
    const size_t i = static_cast<size_t>(IndexOf(id));
    if (!TestBit(mask, i)) continue;
    max_level = std::max(max_level, level[i]);
    const std::span<const uint64_t> row = Row(i);
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = row[w] & mask[w]; bits != 0; bits &= bits - 1) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        level[j] = std::max(level[j], level[i] + 1);
      }
    }
  }
  std::vector<std::vector<PredicateId>> levels(
      static_cast<size_t>(max_level) + 1);
  ForEachBit(mask, [&](size_t i) {
    levels[static_cast<size_t>(level[i])].push_back(nodes_[i]);
  });
  return levels;
}

std::vector<PredicateId> AcDag::FirstJunction(
    std::span<const uint64_t> mask) const {
  // Walk the masked nodes in topological order. Each node reached is
  // minimal among those still remaining; while it reaches all of them it is
  // alone in its level (every longest chain starts at it), so drop it.
  AID_CHECK(mask.size() == words_);
  NodeMask remaining(mask.begin(), mask.end());
  size_t pos = 0;
  for (; pos < topo_order_.size(); ++pos) {
    const size_t c = static_cast<size_t>(IndexOf(topo_order_[pos]));
    if (!TestBit(remaining, c)) continue;
    ClearBit(remaining.data(), c);
    const std::span<const uint64_t> row = Row(c);
    size_t w = 0;
    while (w < words_ && (remaining[w] & ~row[w]) == 0) ++w;
    if (w < words_) break;  // c has an incomparable peer: a junction
  }
  if (pos == topo_order_.size()) return {};
  // The junction is the minimal remaining nodes: those no earlier remaining
  // node reaches. A reached node adds nothing to `reached` (its row is
  // inside its ancestor's), so only the junction's rows are ORed. The
  // failure is never among them: every other node reaches it.
  NodeMask reached(words_, 0);
  NodeMask junction(words_, 0);
  for (; pos < topo_order_.size(); ++pos) {
    const size_t r = static_cast<size_t>(IndexOf(topo_order_[pos]));
    if (!TestBit(mask, r) || TestBit(reached, r)) continue;
    SetBit(junction.data(), r);
    const std::span<const uint64_t> row = Row(r);
    for (size_t w = 0; w < words_; ++w) reached[w] |= row[w];
  }
  return MaskMembers(junction);
}

std::string AcDag::ToDot(const SymbolTable* methods,
                         const SymbolTable* objects) const {
  std::ostringstream out;
  out << "digraph acdag {\n  rankdir=TB;\n";
  for (PredicateId id : nodes_) {
    std::string label = catalog_ != nullptr
                            ? catalog_->Describe(id, methods, objects)
                            : StrFormat("P%d", id);
    for (auto& c : label) {
      if (c == '"') c = '\'';
    }
    out << StrFormat("  n%d [label=\"%s\"%s];\n", id, label.c_str(),
                     id == failure_ ? ", shape=doubleoctagon" : "");
  }
  for (PredicateId id : nodes_) {
    for (PredicateId child : Children(id)) {
      out << StrFormat("  n%d -> n%d;\n", id, child);
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace aid
