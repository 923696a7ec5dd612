// Mutable multigraph with parallel edges and self-loops.
//
// Benign graphs (Definition 2.1) are multigraphs by construction: MakeBenign
// copies every initial edge Λ times and pads nodes with self-loops until each
// node owns exactly Δ edge *slots*. A node's degree is its slot count; a
// self-loop occupies one slot of its node. Random-walk steps pick a slot
// uniformly at random, so a node with Δ/2 loop slots is "lazy" exactly in the
// paper's sense (stays put with probability >= 1/2).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"

namespace overlay {

class Graph;

/// Undirected multigraph stored as one flat n × stride slot array: node v's
/// slots are the first Degree(v) entries of row v. An undirected edge
/// {u, v}, u != v, appears once in u's slots and once in v's; a self-loop
/// {v, v} appears once in v's slots.
///
/// Callers that know the final degree (Δ for benign graphs) pass it as the
/// stride and never relayout. A row that outgrows the stride doubles it and
/// relays every row out, keeping each row's order, so `Multigraph(n)` works
/// for any degree sequence.
class Multigraph {
 public:
  explicit Multigraph(std::size_t num_nodes, std::size_t stride = 0)
      : stride_(stride), degree_(num_nodes, 0), slots_(num_nodes * stride) {}

  std::size_t num_nodes() const { return degree_.size(); }

  /// Slots reserved per row; rows reach this degree without a relayout.
  std::size_t stride() const { return stride_; }

  /// Number of edge slots at v (the node's degree in Definition 2.1's sense).
  std::size_t Degree(NodeId v) const;

  /// All slot targets of v (self-loops appear as v itself).
  std::span<const NodeId> Slots(NodeId v) const;

  /// Number of self-loop slots at v.
  std::size_t SelfLoopCount(NodeId v) const;

  /// Adds the undirected edge {u, v} (one slot at each endpoint).
  /// Requires u != v; use AddSelfLoop for loops.
  void AddEdge(NodeId u, NodeId v);

  /// Adds one self-loop slot at v.
  void AddSelfLoop(NodeId v);

  /// Sets v's degree to `degree` (<= stride()) and returns v's row for the
  /// caller to fill; the caller keeps the slot lists symmetric. Touches only
  /// v's row and degree, so distinct nodes may be reset concurrently.
  std::span<NodeId> ResetSlots(NodeId v, std::size_t degree);

  /// Uniformly random slot target of v (a single lazy-walk step).
  NodeId RandomNeighbor(NodeId v, Rng& rng) const {
    OVERLAY_CHECK(v < num_nodes(), "node out of range");
    const std::uint32_t degree = degree_[v];
    OVERLAY_CHECK(degree != 0, "random step from isolated node");
    return slots_[static_cast<std::size_t>(v) * stride_ + rng.NextBelow(degree)];
  }

  /// True iff every node has exactly `delta` slots.
  bool IsRegular(std::size_t delta) const;

  /// True iff every node has at least `min_loops` self-loop slots.
  bool IsLazy(std::size_t min_loops) const;

  /// Number of slot-counted edges crossing the cut (in_set, complement),
  /// ignoring self-loops. `in_set[v]` marks membership.
  std::size_t CutWeight(const std::vector<char>& in_set) const;

  /// Conductance of S per Definition 1.7: cut(S) / (Δ * |S|), where Δ is the
  /// common degree. Requires the graph to be regular and 0 < |S| <= n/2.
  double ConductanceOf(const std::vector<char>& in_set, std::size_t delta) const;

  /// Collapses to a simple graph (drops loops, dedupes parallel edges).
  Graph ToSimpleGraph() const;

  /// Weighted edge list (u < v) -> multiplicity, loops excluded. Input for
  /// Stoer–Wagner.
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> WeightedEdges() const;

  /// Total non-loop slot-counted edge multiplicity (each edge counted once).
  std::uint64_t TotalEdgeMultiplicity() const;

 private:
  /// Appends one slot to v's row, relaying out first when the row is full.
  void Push(NodeId v, NodeId target);
  /// Doubles the stride (at least to 4) and moves every row to its new place.
  void Relayout();

  std::size_t stride_;
  std::vector<std::uint32_t> degree_;
  std::vector<NodeId> slots_;  ///< row v = [v·stride_, v·stride_ + degree_[v])
};

}  // namespace overlay
