#include "graph/multigraph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace overlay {

std::size_t Multigraph::Degree(NodeId v) const {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  return degree_[v];
}

std::span<const NodeId> Multigraph::Slots(NodeId v) const {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  return {slots_.data() + static_cast<std::size_t>(v) * stride_, degree_[v]};
}

std::size_t Multigraph::SelfLoopCount(NodeId v) const {
  const auto row = Slots(v);
  return static_cast<std::size_t>(std::count(row.begin(), row.end(), v));
}

void Multigraph::AddEdge(NodeId u, NodeId v) {
  OVERLAY_CHECK(u < num_nodes() && v < num_nodes(), "edge endpoint out of range");
  OVERLAY_CHECK(u != v, "use AddSelfLoop for self-loops");
  Push(u, v);
  Push(v, u);
}

void Multigraph::AddSelfLoop(NodeId v) {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  Push(v, v);
}

std::span<NodeId> Multigraph::ResetSlots(NodeId v, std::size_t degree) {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  OVERLAY_CHECK(degree <= stride_, "row degree exceeds the stride");
  degree_[v] = static_cast<std::uint32_t>(degree);
  return {slots_.data() + static_cast<std::size_t>(v) * stride_, degree};
}

void Multigraph::Push(NodeId v, NodeId target) {
  if (degree_[v] == stride_) Relayout();
  slots_[static_cast<std::size_t>(v) * stride_ + degree_[v]++] = target;
}

void Multigraph::Relayout() {
  const std::size_t stride = std::max<std::size_t>(4, 2 * stride_);
  std::vector<NodeId> slots(num_nodes() * stride);
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    std::copy_n(slots_.begin() + v * stride_, degree_[v],
                slots.begin() + v * stride);
  }
  slots_ = std::move(slots);
  stride_ = stride;
}

bool Multigraph::IsRegular(std::size_t delta) const {
  return std::all_of(degree_.begin(), degree_.end(),
                     [delta](std::uint32_t d) { return d == delta; });
}

bool Multigraph::IsLazy(std::size_t min_loops) const {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (SelfLoopCount(v) < min_loops) return false;
  }
  return true;
}

std::size_t Multigraph::CutWeight(const std::vector<char>& in_set) const {
  OVERLAY_CHECK(in_set.size() == num_nodes(), "cut indicator size mismatch");
  std::size_t crossing = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!in_set[v]) continue;
    for (NodeId w : Slots(v)) {
      if (w != v && !in_set[w]) ++crossing;
    }
  }
  return crossing;
}

double Multigraph::ConductanceOf(const std::vector<char>& in_set,
                                 std::size_t delta) const {
  const auto size =
      static_cast<std::size_t>(std::count(in_set.begin(), in_set.end(), 1));
  OVERLAY_CHECK(size > 0 && size * 2 <= num_nodes(),
                "conductance requires 0 < |S| <= n/2");
  OVERLAY_CHECK(delta > 0, "delta must be positive");
  return static_cast<double>(CutWeight(in_set)) /
         (static_cast<double>(delta) * static_cast<double>(size));
}

Graph Multigraph::ToSimpleGraph() const {
  GraphBuilder builder(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (NodeId w : Slots(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  return std::move(builder).Build();
}

std::map<std::pair<NodeId, NodeId>, std::uint64_t> Multigraph::WeightedEdges()
    const {
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> weights;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (NodeId w : Slots(v)) {
      if (v < w) ++weights[{v, w}];
    }
  }
  return weights;
}

std::uint64_t Multigraph::TotalEdgeMultiplicity() const {
  std::uint64_t total = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (NodeId w : Slots(v)) {
      if (w != v) ++total;
    }
  }
  return total / 2;
}

}  // namespace overlay
