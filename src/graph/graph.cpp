#include "graph/graph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sim/engine.hpp"
#include "sim/shard_pool.hpp"

namespace overlay {

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  OVERLAY_CHECK(u < n_ && v < n_, "edge endpoint out of range");
  if (u == v) return;
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::Build() && {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.offsets_.assign(n_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adjacency_.resize(edges_.size() * 2);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  for (NodeId v = 0; v < n_; ++v) {
    std::sort(g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]),
              g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]));
  }
  return g;
}

std::span<const NodeId> Graph::Neighbors(NodeId v) const {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::size_t Graph::Degree(NodeId v) const {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  return offsets_[v + 1] - offsets_[v];
}

std::size_t Graph::MaxDegree() const {
  std::size_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::EdgeList() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

Graph Graph::Permuted(const std::vector<NodeId>& perm) const {
  OVERLAY_CHECK(perm.size() == num_nodes(), "permutation size mismatch");
  GraphBuilder builder(num_nodes());
  for (const auto& [u, v] : EdgeList()) {
    builder.AddEdge(perm[u], perm[v]);
  }
  return std::move(builder).Build();
}

Graph Graph::InducedSubgraph(std::span<const NodeId> new_id,
                             const ExecPolicy& exec) const {
  const std::size_t n = num_nodes();
  OVERLAY_CHECK(new_id.size() == n, "renaming size mismatch");
  std::size_t kept = 0;
  for (const NodeId id : new_id) {
    if (id == kInvalidNode) continue;
    OVERLAY_CHECK(id == kept, "induced renaming must be dense and ascending");
    ++kept;
  }

  Graph h;
  h.offsets_.assign(kept + 1, 0);
  const auto count = [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      if (new_id[v] == kInvalidNode) continue;
      std::size_t deg = 0;
      for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        deg += new_id[adjacency_[i]] != kInvalidNode;
      }
      h.offsets_[new_id[v] + 1] = deg;
    }
  };
  const auto fill = [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      if (new_id[v] == kInvalidNode) continue;
      std::size_t out = h.offsets_[new_id[v]];
      for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const NodeId w = new_id[adjacency_[i]];
        if (w != kInvalidNode) h.adjacency_[out++] = w;
      }
    }
  };
  const std::size_t shards = exec.ShardsFor(n);
  const std::size_t chunks = shards * kStealChunksPerWorker;
  RunDynamicBlocks(exec.Pool(), n, shards, chunks, count);
  for (std::size_t i = 1; i <= kept; ++i) {
    h.offsets_[i] += h.offsets_[i - 1];
  }
  h.adjacency_.resize(h.offsets_[kept]);
  RunDynamicBlocks(exec.Pool(), n, shards, chunks, fill);
  return h;
}

void DigraphBuilder::AddArc(NodeId u, NodeId v) {
  OVERLAY_CHECK(u < n_ && v < n_, "arc endpoint out of range");
  if (u == v) return;
  arcs_.push_back({u, v});
}

Digraph DigraphBuilder::Build() && {
  std::sort(arcs_.begin(), arcs_.end(), [](const Arc& a, const Arc& b) {
    return std::pair{a.from, a.to} < std::pair{b.from, b.to};
  });
  arcs_.erase(std::unique(arcs_.begin(), arcs_.end()), arcs_.end());

  Digraph g;
  g.offsets_.assign(n_ + 1, 0);
  for (const Arc& a : arcs_) {
    ++g.offsets_[a.from + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adjacency_.resize(arcs_.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Arc& a : arcs_) {
    g.adjacency_[cursor[a.from]++] = a.to;
  }
  return g;
}

std::span<const NodeId> Digraph::OutNeighbors(NodeId v) const {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::size_t Digraph::OutDegree(NodeId v) const {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  return offsets_[v + 1] - offsets_[v];
}

std::vector<std::size_t> Digraph::InDegrees() const {
  std::vector<std::size_t> in(num_nodes(), 0);
  for (NodeId target : adjacency_) {
    ++in[target];
  }
  return in;
}

std::vector<std::size_t> Digraph::TotalDegrees() const {
  std::vector<std::size_t> total = InDegrees();
  for (NodeId v = 0; v < num_nodes(); ++v) {
    total[v] += OutDegree(v);
  }
  return total;
}

std::size_t Digraph::MaxTotalDegree() const {
  const auto total = TotalDegrees();
  std::size_t best = 0;
  for (const std::size_t d : total) best = std::max(best, d);
  return best;
}

Graph Digraph::Undirected() const {
  GraphBuilder builder(num_nodes());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : OutNeighbors(u)) {
      builder.AddEdge(u, v);
    }
  }
  return std::move(builder).Build();
}

}  // namespace overlay
