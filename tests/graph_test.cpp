// Unit tests for graph/graph.hpp: Graph, Digraph, builders, permutation.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"

namespace overlay {
namespace {

Graph Triangle() {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return std::move(b).Build();
}

TEST(Graph, EmptyGraph) {
  Graph g = GraphBuilder(0).Build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, TriangleBasics) {
  const Graph g = Triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.Degree(v), 2u);
  }
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(Graph, NeighborsSorted) {
  GraphBuilder b(5);
  b.AddEdge(2, 4);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  b.AddEdge(2, 1);
  const Graph g = std::move(b).Build();
  const auto nbrs = g.Neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Graph, DuplicateEdgesDeduped) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(Graph, SelfLoopsIgnored) {
  GraphBuilder b(2);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, OutOfRangeEndpointThrows) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(0, 2), ContractViolation);
  const Graph g = Triangle();
  EXPECT_THROW(g.Neighbors(3), ContractViolation);
  EXPECT_THROW(g.Degree(3), ContractViolation);
}

TEST(Graph, EdgeListCanonical) {
  const Graph g = Triangle();
  const auto edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) {
    EXPECT_LT(u, v);
  }
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(Graph, MaxDegree) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(Graph, PermutedPreservesStructure) {
  const Graph g = Triangle();
  const std::vector<NodeId> perm{2, 0, 1};
  const Graph p = g.Permuted(perm);
  EXPECT_EQ(p.num_edges(), 3u);
  EXPECT_TRUE(p.HasEdge(2, 0));  // old (0,1)
  EXPECT_TRUE(p.HasEdge(0, 1));  // old (1,2)
}

TEST(Graph, PermutedSizeMismatchThrows) {
  const Graph g = Triangle();
  EXPECT_THROW(g.Permuted({0, 1}), ContractViolation);
}

TEST(Graph, InducedSubgraphKeepsEdgesBetweenKeptNodes) {
  // 0-1-2-3-4 path plus chords {0,2} and {1,4}; drop node 2.
  GraphBuilder b(5);
  for (NodeId v = 0; v + 1 < 5; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 4);
  const Graph g = std::move(b).Build();
  const std::vector<NodeId> new_id = {0, 1, kInvalidNode, 2, 3};
  for (const std::size_t shards : {1u, 2u, 5u}) {
    const Graph h = g.InducedSubgraph(new_id, {.num_shards = shards});
    EXPECT_EQ(h.num_nodes(), 4u);
    EXPECT_EQ(h.EdgeList(),
              (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 3}, {2, 3}}));
  }
  const Graph none =
      g.InducedSubgraph(std::vector<NodeId>(5, kInvalidNode), {});
  EXPECT_EQ(none.num_nodes(), 0u);
  EXPECT_EQ(none.num_edges(), 0u);
}

TEST(Graph, InducedSubgraphRejectsNonMonotoneRenaming) {
  const Graph g = Triangle();
  EXPECT_THROW(g.InducedSubgraph(std::vector<NodeId>{1, 0, 2}, {}),
               ContractViolation);
  EXPECT_THROW(g.InducedSubgraph(std::vector<NodeId>{0, 2, kInvalidNode}, {}),
               ContractViolation);
  EXPECT_THROW(g.InducedSubgraph(std::vector<NodeId>{0, 1}, {}),
               ContractViolation);
}

TEST(Digraph, BasicArcs) {
  DigraphBuilder b(3);
  b.AddArc(0, 1);
  b.AddArc(0, 2);
  b.AddArc(1, 2);
  const Digraph g = std::move(b).Build();
  EXPECT_EQ(g.num_arcs(), 3u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(2), 0u);
  const auto in = g.InDegrees();
  EXPECT_EQ(in[2], 2u);
  EXPECT_EQ(in[0], 0u);
}

TEST(Digraph, TotalDegreesMatchPaperDefinition) {
  DigraphBuilder b(3);
  b.AddArc(0, 1);
  b.AddArc(2, 1);
  const Digraph g = std::move(b).Build();
  const auto total = g.TotalDegrees();
  EXPECT_EQ(total[0], 1u);  // out 1 in 0
  EXPECT_EQ(total[1], 2u);  // out 0 in 2
  EXPECT_EQ(total[2], 1u);
  EXPECT_EQ(g.MaxTotalDegree(), 2u);
}

TEST(Digraph, DuplicateArcsDeduped) {
  DigraphBuilder b(2);
  b.AddArc(0, 1);
  b.AddArc(0, 1);
  const Digraph g = std::move(b).Build();
  EXPECT_EQ(g.num_arcs(), 1u);
}

TEST(Digraph, SelfArcsIgnored) {
  DigraphBuilder b(2);
  b.AddArc(1, 1);
  const Digraph g = std::move(b).Build();
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(Digraph, UndirectedSymmetrizes) {
  DigraphBuilder b(3);
  b.AddArc(0, 1);
  b.AddArc(1, 0);  // both directions collapse to one edge
  b.AddArc(1, 2);
  const Digraph d = std::move(b).Build();
  const Graph g = d.Undirected();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 1));
}

}  // namespace
}  // namespace overlay
