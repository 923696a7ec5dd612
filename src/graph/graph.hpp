// Static graph types: undirected CSR `Graph` and directed `Digraph`.
//
// `Digraph` models the paper's knowledge graph (u -> v iff u stores id(v)).
// `Graph` is its undirected ("symmetrized") view, the object all of Section 4's
// problems are defined on. Both are immutable after construction; use
// `GraphBuilder` / `DigraphBuilder` to assemble edge lists.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace overlay {

class Graph;
struct ExecPolicy;

/// Accumulates undirected edges, then freezes them into a CSR `Graph`.
/// Duplicate edges and self-loops are deduplicated/discarded by default
/// (simple-graph semantics); the multigraph type in multigraph.hpp keeps them.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes) : n_(num_nodes) {}

  /// Adds the undirected edge {u, v}. Self-loops are ignored.
  void AddEdge(NodeId u, NodeId v);

  std::size_t num_nodes() const { return n_; }

  /// Freezes into an immutable simple graph (dedupes parallel edges).
  Graph Build() &&;

 private:
  std::size_t n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// Immutable undirected simple graph in compressed-sparse-row form.
class Graph {
 public:
  Graph() = default;

  std::size_t num_nodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_edges() const { return adjacency_.size() / 2; }

  /// Neighbors of `v`, sorted ascending.
  std::span<const NodeId> Neighbors(NodeId v) const;

  std::size_t Degree(NodeId v) const;
  std::size_t MaxDegree() const;

  /// True iff {u,v} is an edge (binary search, O(log deg)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// All edges as (u, v) with u < v.
  std::vector<std::pair<NodeId, NodeId>> EdgeList() const;

  /// Renames node ids by `perm` (perm[old] = new); used by id-invariance tests.
  Graph Permuted(const std::vector<NodeId>& perm) const;

  /// Subgraph induced by the kept nodes of a dense, monotone renaming:
  /// new_id[v] is v's id in the result, or kInvalidNode when v is dropped,
  /// and the kept nodes are numbered 0, 1, 2, ... in ascending order of v
  /// (checked). Monotone renaming keeps every filtered neighbour list sorted
  /// and duplicate-free, so the CSR is built in O(n + m) with no sort: a
  /// degree pass, a serial prefix sum, and a fill pass, each over contiguous
  /// node blocks claimed work-stealing on `exec`'s pool. Writes are disjoint
  /// and nothing is random, so the result is shard-count-invariant. For a
  /// short sorted node list, hybrid/components.hpp's InducedSubgraph(g,
  /// nodes) avoids the O(n) renaming array.
  Graph InducedSubgraph(std::span<const NodeId> new_id,
                        const ExecPolicy& exec) const;

 private:
  friend class GraphBuilder;
  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;     // size 2m, sorted per node
};

class Digraph;

/// Accumulates directed arcs, then freezes them into a `Digraph`.
class DigraphBuilder {
 public:
  explicit DigraphBuilder(std::size_t num_nodes) : n_(num_nodes) {}

  /// Adds the arc (u -> v): u knows id(v). Self-arcs are ignored.
  void AddArc(NodeId u, NodeId v);

  std::size_t num_nodes() const { return n_; }

  Digraph Build() &&;

 private:
  std::size_t n_;
  std::vector<Arc> arcs_;
};

/// Immutable directed knowledge graph with out-adjacency in CSR form.
class Digraph {
 public:
  Digraph() = default;

  std::size_t num_nodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_arcs() const { return adjacency_.size(); }

  /// Out-neighbors of `v` (identifiers v stores), sorted ascending.
  std::span<const NodeId> OutNeighbors(NodeId v) const;

  std::size_t OutDegree(NodeId v) const;

  /// In-degree of every node (how many nodes store each id).
  std::vector<std::size_t> InDegrees() const;

  /// Degree (in + out) of the paper's Section 1.2 definition, per node.
  std::vector<std::size_t> TotalDegrees() const;
  std::size_t MaxTotalDegree() const;

  /// The undirected version: each node "introduces itself" to out-neighbors.
  Graph Undirected() const;

 private:
  friend class DigraphBuilder;
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adjacency_;
};

}  // namespace overlay
