// The Approximate Causal DAG (paper Section 4).
//
// Nodes are the fully-discriminative predicates; an edge P -> Q means P's
// policy timestamp precedes Q's in *every* failed log. Because each log
// orders predicates totally (strictly, ties excluded) and the edge relation
// is the intersection of those orders, the relation is a strict partial
// order: transitively closed and acyclic by construction. The stored edge
// set therefore *is* the transitive closure (the paper's AC-DAG "includes
// all edges implied by transitive closure"); a transitive reduction is kept
// alongside for traversal, junction detection, and display.
//
// Nodes with no path to the failure predicate are discarded at build time --
// they cannot be causes (this is how the Kafka case study drops 30 of its 72
// discriminative predicates).
//
// Representation. Nodes are indexed 0..n-1 in ascending id order. The
// closure is n word-packed rows of ceil(n/64) uint64_t words: bit j of row i
// is set iff nodes()[i] reaches nodes()[j]. Row i is therefore also node i's
// descendant set, and a NodeMask (the same packing over nodes) selects a
// subgraph without copying it: the engine's branch pruning narrows the DAG
// to its surviving candidates with a mask, and Definition 2's ancestor guard
// ANDs one row with an intervened-node mask. No transposed copy is kept.
//
// The deterministic topological order is min-index Kahn: next comes the
// smallest node index (so the smallest id) among the nodes whose ancestors
// are all placed. It is computed once, at construction, with the ready set
// as a word-packed bitset scanned from the lowest word that can hold a ready
// node. FromEdges takes it from the direct edges, which order the closure
// identically.
//
// Cost, n nodes, w = ceil(n/64), E closure pairs, m the largest node id,
// D direct edges of which D' end at a node with children of its own: both
// builders sort the nodes by marking them in one table over ids 0..m, which
// then maps each id to its index (O(m + n), kept as the DAG's id lookup).
// Build O(m + L * n * w + E) over L failed logs (the order is one Kahn pass
// over the closure); FromEdges O(m + D + n * w + D' * w): a table lookup
// per edge endpoint, Kahn over the direct edges, and one w-word row OR per
// edge into a non-sink (an edge into a sink, such as the failure, only sets
// a bit); plus O(E) only when nodes that cannot reach the failure are
// dropped. Reaches, Contains, TopoPosition O(1); EdgeCount
// O(n*w); FirstJunction(mask) O(n + k*w + j*w) for k single-node levels
// above a j-way junction; TopoLevels(mask) O(n*w + E within the mask); the
// reduction (Children/Parents, built lazily once) O(E * w).

#ifndef AID_CAUSAL_ACDAG_H_
#define AID_CAUSAL_ACDAG_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "causal/precedence.h"
#include "common/status.h"
#include "predicates/predicate.h"

namespace aid {

class AcDag {
 public:
  /// Builds the AC-DAG from the failed observation logs.
  ///
  /// `candidates` are the fully-discriminative predicate ids (from
  /// StatisticalDebugger::FullyDiscriminative); `failure` must be among
  /// them. Successful logs in `logs` are ignored. A candidate observed in
  /// some failed logs but not all is rejected (InvalidArgument): the
  /// relation would not be transitively closed. One observed in none gets
  /// no edge and is dropped.
  static Result<AcDag> Build(const PredicateCatalog* catalog,
                             const std::vector<PredicateLog>& logs,
                             const std::vector<PredicateId>& candidates,
                             PredicateId failure,
                             const PrecedenceConfig& config =
                                 PrecedenceConfig::Default());

  /// Builds directly from explicit edges (synthetic targets, tests). Edges
  /// are transitively closed internally; must be acyclic.
  static Result<AcDag> FromEdges(
      const PredicateCatalog* catalog, const std::vector<PredicateId>& nodes,
      const std::vector<std::pair<PredicateId, PredicateId>>& edges,
      PredicateId failure);

  /// All nodes (ascending id), including the failure predicate.
  const std::vector<PredicateId>& nodes() const { return nodes_; }
  size_t size() const { return nodes_.size(); }
  /// Number of ordered pairs in the stored closure.
  size_t EdgeCount() const;
  PredicateId failure() const { return failure_; }
  const PredicateCatalog* catalog() const { return catalog_; }

  bool Contains(PredicateId id) const {
    return id >= 0 && static_cast<size_t>(id) < index_.size() &&
           index_[static_cast<size_t>(id)] >= 0;
  }

  /// True iff `from` strictly precedes `to` in the closure (from ; to).
  bool Reaches(PredicateId from, PredicateId to) const;

  /// Children/parents in the transitive reduction (computed lazily; the
  /// engine itself operates on the closure, the reduction serves display
  /// and white-box tests).
  const std::vector<PredicateId>& Children(PredicateId id) const;
  const std::vector<PredicateId>& Parents(PredicateId id) const;

  /// Deterministic topological order (ids break ties among incomparables).
  const std::vector<PredicateId>& TopoOrder() const { return topo_order_; }
  /// Position of `id` in TopoOrder().
  int TopoPosition(PredicateId id) const {
    return topo_pos_[static_cast<size_t>(IndexOf(id))];
  }

  /// A set of nodes: bit i of word i/64 stands for nodes()[i]. Always
  /// words() long; bits at and past size() stay clear.
  using NodeMask = std::vector<uint64_t>;
  size_t words() const { return words_; }
  /// The mask of `ids` (each must be a node).
  NodeMask MaskOf(const std::vector<PredicateId>& ids) const;
  /// Sets `id`'s bit in `mask`.
  void AddToMask(PredicateId id, NodeMask& mask) const;
  /// The nodes in `mask`, ascending id.
  std::vector<PredicateId> MaskMembers(std::span<const uint64_t> mask) const;
  /// Appends the nodes in `mask` to `out`, ascending id.
  void AppendMaskMembers(std::span<const uint64_t> mask,
                         std::vector<PredicateId>& out) const;
  /// The closure row of `id`: its descendants (excluding `id`) as a mask.
  std::span<const uint64_t> DescendantMask(PredicateId id) const {
    return Row(static_cast<size_t>(IndexOf(id)));
  }

  /// Longest-path layering of the subgraph induced on `mask`: level(n) = 0
  /// for nodes with no ancestor in the mask, else 1 + max(level(masked
  /// ancestors)). Returned ascending by level; members sorted. A level with
  /// more than one member is a junction (Algorithm 2); FirstJunction finds
  /// the first one without layering the whole mask. For display and tests.
  std::vector<std::vector<PredicateId>> TopoLevels(
      std::span<const uint64_t> mask) const;
  /// The layering of the whole DAG.
  std::vector<std::vector<PredicateId>> TopoLevels() const {
    return TopoLevels(MaskOf(nodes_));
  }

  /// The first level of TopoLevels(mask) with two or more members other
  /// than the failure, sorted; empty if there is none.
  std::vector<PredicateId> FirstJunction(std::span<const uint64_t> mask) const;

  /// All descendants of `id` in the closure (excluding `id`).
  std::vector<PredicateId> Descendants(PredicateId id) const {
    return MaskMembers(DescendantMask(id));
  }

  /// Graphviz rendering (transitive reduction) for reports.
  std::string ToDot(const SymbolTable* methods, const SymbolTable* objects) const;

 private:
  AcDag() = default;
  /// Applies reachability-to-failure pruning to `rows` (the closure over
  /// the sorted, non-negative `nodes`, packed as described above), to
  /// `order` (its min-index Kahn order, as node indices) and to `index` (the
  /// dense id -> node index table, as index_), then builds the DAG.
  static Result<AcDag> FromClosure(const PredicateCatalog* catalog,
                                   std::vector<PredicateId> nodes,
                                   std::vector<int> index,
                                   std::vector<uint64_t> rows,
                                   std::vector<size_t> order,
                                   PredicateId failure);
  void BuildReduction() const;
  int IndexOf(PredicateId id) const;
  std::span<const uint64_t> Row(size_t i) const {
    return {rows_.data() + i * words_, words_};
  }

  const PredicateCatalog* catalog_ = nullptr;
  std::vector<PredicateId> nodes_;
  /// index_[id]: position of `id` in nodes_, or -1 (dense over ids).
  std::vector<int> index_;
  PredicateId failure_ = kInvalidPredicate;
  size_t words_ = 0;
  /// The closure: row i occupies words [i * words_, (i + 1) * words_).
  std::vector<uint64_t> rows_;
  std::vector<PredicateId> topo_order_;
  std::vector<int> topo_pos_;  ///< by node index
  mutable bool reduction_built_ = false;
  mutable std::vector<std::vector<PredicateId>> children_;  ///< reduction
  mutable std::vector<std::vector<PredicateId>> parents_;   ///< reduction
};

}  // namespace aid

#endif  // AID_CAUSAL_ACDAG_H_
