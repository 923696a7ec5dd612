// Unit tests for the multigraph (benign-graph substrate).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/multigraph.hpp"
#include "graph/graph.hpp"

namespace overlay {
namespace {

TEST(Multigraph, ParallelEdgesCount) {
  Multigraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.Degree(1), 3u);
  EXPECT_EQ(g.TotalEdgeMultiplicity(), 3u);
}

TEST(Multigraph, SelfLoopsOccupyOneSlot) {
  Multigraph g(2);
  g.AddSelfLoop(0);
  g.AddSelfLoop(0);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.SelfLoopCount(0), 2u);
  EXPECT_EQ(g.Degree(1), 0u);
  EXPECT_EQ(g.TotalEdgeMultiplicity(), 0u);
}

TEST(Multigraph, AddEdgeRejectsSelf) {
  Multigraph g(2);
  EXPECT_THROW(g.AddEdge(1, 1), ContractViolation);
}

TEST(Multigraph, RegularityCheck) {
  Multigraph g(2);
  g.AddEdge(0, 1);
  g.AddSelfLoop(0);
  EXPECT_FALSE(g.IsRegular(2));
  g.AddSelfLoop(1);
  EXPECT_TRUE(g.IsRegular(2));
}

TEST(Multigraph, LazinessCheck) {
  Multigraph g(2);
  g.AddEdge(0, 1);
  g.AddSelfLoop(0);
  g.AddSelfLoop(1);
  EXPECT_TRUE(g.IsLazy(1));
  EXPECT_FALSE(g.IsLazy(2));
}

TEST(Multigraph, CutWeightCountsMultiplicity) {
  Multigraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddSelfLoop(1);  // never crosses
  const std::vector<char> s{1, 1, 0, 0};
  EXPECT_EQ(g.CutWeight(s), 1u);
  const std::vector<char> t{1, 0, 0, 0};
  EXPECT_EQ(g.CutWeight(t), 2u);
}

TEST(Multigraph, ConductanceDefinition) {
  // 4-node cycle with delta=2: S = two adjacent nodes has 2 crossing edges,
  // conductance 2 / (2*2) = 0.5.
  Multigraph g(4);
  for (NodeId v = 0; v < 4; ++v) g.AddEdge(v, (v + 1) % 4);
  const std::vector<char> s{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(g.ConductanceOf(s, 2), 0.5);
}

TEST(Multigraph, ConductanceRejectsLargeSet) {
  Multigraph g(4);
  for (NodeId v = 0; v < 4; ++v) g.AddEdge(v, (v + 1) % 4);
  const std::vector<char> too_big{1, 1, 1, 0};
  EXPECT_THROW(g.ConductanceOf(too_big, 2), ContractViolation);
}

TEST(Multigraph, RandomNeighborRespectsSlots) {
  Multigraph g(3);
  g.AddEdge(0, 1);
  g.AddSelfLoop(0);
  Rng rng(5);
  int self = 0, other = 0;
  for (int i = 0; i < 2000; ++i) {
    const NodeId w = g.RandomNeighbor(0, rng);
    ASSERT_TRUE(w == 0 || w == 1);
    (w == 0 ? self : other)++;
  }
  // Half the slots are the loop: expect a near-even split.
  EXPECT_NEAR(self, 1000, 150);
  EXPECT_NEAR(other, 1000, 150);
}

TEST(Multigraph, RandomNeighborFromIsolatedThrows) {
  Multigraph g(1);
  Rng rng(1);
  EXPECT_THROW(g.RandomNeighbor(0, rng), ContractViolation);
}

TEST(Multigraph, ToSimpleGraphCollapses) {
  Multigraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddSelfLoop(2);
  const Graph s = g.ToSimpleGraph();
  EXPECT_EQ(s.num_edges(), 2u);
  EXPECT_TRUE(s.HasEdge(0, 1));
  EXPECT_TRUE(s.HasEdge(1, 2));
}

TEST(Multigraph, WeightedEdges) {
  Multigraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(2, 1);
  g.AddSelfLoop(0);
  const auto weights = g.WeightedEdges();
  EXPECT_EQ(weights.size(), 2u);
  EXPECT_EQ(weights.at({0, 1}), 2u);
  EXPECT_EQ(weights.at({1, 2}), 1u);
}

// A per-node vector model of the slot lists: what the flat layout must
// reproduce row for row.
struct SlotModel {
  std::vector<std::vector<NodeId>> rows;
  void AddEdge(NodeId u, NodeId v) {
    rows[u].push_back(v);
    rows[v].push_back(u);
  }
  void AddSelfLoop(NodeId v) { rows[v].push_back(v); }
};

// Random irregular multigraph built in lockstep with the model: parallel
// edges, loops, isolated nodes and one hub far past the initial stride.
void BuildIrregular(Multigraph& g, SlotModel& model, std::uint64_t seed) {
  const std::size_t n = g.num_nodes();
  model.rows.assign(n, {});
  Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    // Node n-1 stays isolated; node 0 is the hub.
    const NodeId u = rng.NextBool(0.3)
                         ? 0
                         : static_cast<NodeId>(rng.NextBelow(n - 1));
    const NodeId v = static_cast<NodeId>(rng.NextBelow(n - 1));
    if (u == v) {
      g.AddSelfLoop(u);
      model.AddSelfLoop(u);
    } else {
      g.AddEdge(u, v);
      model.AddEdge(u, v);
    }
  }
}

void ExpectRowsMatch(const Multigraph& g, const SlotModel& model) {
  ASSERT_EQ(g.num_nodes(), model.rows.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto row = g.Slots(v);
    EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), model.rows[v])
        << "row " << v;
    EXPECT_EQ(g.Degree(v), model.rows[v].size());
  }
}

TEST(Multigraph, GrowthPastStrideKeepsRowOrder) {
  for (const std::size_t stride : {0u, 1u, 3u}) {
    Multigraph g(12, stride);
    SlotModel model;
    BuildIrregular(g, model, 17 + stride);
    EXPECT_GT(g.stride(), stride);  // the hub forced relayouts
    EXPECT_GE(g.stride(), g.Degree(0));
    ExpectRowsMatch(g, model);
  }
}

TEST(Multigraph, StrideSizedRowsNeverRelayout) {
  Multigraph g(3, 4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  for (NodeId v = 0; v < 3; ++v) {
    while (g.Degree(v) < 4) g.AddSelfLoop(v);
  }
  EXPECT_EQ(g.stride(), 4u);
  EXPECT_TRUE(g.IsRegular(4));
  EXPECT_TRUE(g.IsLazy(2));
}

TEST(Multigraph, MovedIntoEmptyGraphBehaves) {
  // The construction loop's pattern: an empty placeholder, move-assigned
  // from each new graph in turn.
  Multigraph cur(0);
  EXPECT_EQ(cur.num_nodes(), 0u);
  EXPECT_TRUE(cur.IsRegular(5));
  for (std::uint64_t round = 0; round < 3; ++round) {
    Multigraph next(12, round);
    SlotModel model;
    BuildIrregular(next, model, 40 + round);
    cur = std::move(next);
    ExpectRowsMatch(cur, model);
    // Still mutable after the move: a further edge lands at the row ends.
    cur.AddEdge(3, 4);
    model.AddEdge(3, 4);
    ExpectRowsMatch(cur, model);
    Rng rng(round);
    const NodeId w = cur.RandomNeighbor(0, rng);
    EXPECT_NE(std::find(model.rows[0].begin(), model.rows[0].end(), w),
              model.rows[0].end());
  }
}

TEST(Multigraph, ReadersMatchSlotModelOnIrregularGraph) {
  Multigraph g(12);
  SlotModel model;
  BuildIrregular(g, model, 99);
  ExpectRowsMatch(g, model);

  std::set<std::pair<NodeId, NodeId>> simple;
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> weights;
  std::uint64_t multiplicity = 0;
  for (NodeId v = 0; v < 12; ++v) {
    const auto& row = model.rows[v];
    EXPECT_EQ(g.SelfLoopCount(v),
              static_cast<std::size_t>(std::count(row.begin(), row.end(), v)));
    for (const NodeId w : row) {
      if (v < w) {
        simple.insert({v, w});
        ++weights[{v, w}];
        ++multiplicity;
      }
    }
  }
  EXPECT_EQ(g.WeightedEdges(), weights);
  EXPECT_EQ(g.TotalEdgeMultiplicity(), multiplicity);
  const Graph s = g.ToSimpleGraph();
  EXPECT_EQ(s.num_edges(), simple.size());
  for (const auto& [u, v] : simple) EXPECT_TRUE(s.HasEdge(u, v));
  EXPECT_EQ(s.Degree(11), 0u);  // the isolated node
}

TEST(Multigraph, ResetSlotsWritesOneRow) {
  Multigraph g(3, 4);
  g.AddEdge(1, 2);
  const auto row = g.ResetSlots(0, 3);
  ASSERT_EQ(row.size(), 3u);
  row[0] = 1;
  row[1] = 0;
  row[2] = 0;
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.SelfLoopCount(0), 2u);
  EXPECT_EQ(g.Slots(0)[0], 1u);
  EXPECT_EQ(g.Slots(1).size(), 1u);  // other rows untouched
  EXPECT_THROW(g.ResetSlots(0, 5), ContractViolation);
}

}  // namespace
}  // namespace overlay
