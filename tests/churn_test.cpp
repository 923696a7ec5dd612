// Tests for the sharded churn driver: serial-stream fidelity, determinism
// for a fixed (seed, shard count), structural correctness of the survivor
// extraction, shard-count invariance of the non-random passes, and agreement
// with a reference pipeline that materialises the whole survivor graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "overlay/churn.hpp"

namespace overlay {
namespace {

/// The straightforward extraction ExtractSurvivors must agree with: filter
/// g's edge list, build the whole survivor graph, label its components, and
/// build the largest one from the survivor graph's edges.
struct Reference {
  std::vector<NodeId> survivor_global;
  Graph survivor_graph;
  std::vector<std::uint32_t> labels;  // per survivor-local id
  std::size_t num_components = 0;
  std::vector<NodeId> component_global;
  Graph largest_component;
};

Reference ReferenceExtract(const Graph& g, const std::vector<char>& alive) {
  Reference ref;
  std::vector<NodeId> local(g.num_nodes(), kInvalidNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) {
      local[v] = static_cast<NodeId>(ref.survivor_global.size());
      ref.survivor_global.push_back(v);
    }
  }
  GraphBuilder sb(ref.survivor_global.size());
  for (const auto& [u, v] : g.EdgeList()) {
    if (alive[u] && alive[v]) sb.AddEdge(local[u], local[v]);
  }
  ref.survivor_graph = std::move(sb).Build();
  if (ref.survivor_global.empty()) {
    ref.largest_component = GraphBuilder(0).Build();
    return ref;
  }
  ref.labels = ConnectedComponentLabels(ref.survivor_graph);
  const auto sizes = ComponentSizes(ref.labels);
  ref.num_components = sizes.size();
  const auto best = static_cast<std::uint32_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<NodeId> comp_local(ref.survivor_global.size(), kInvalidNode);
  for (NodeId v = 0; v < ref.survivor_global.size(); ++v) {
    if (ref.labels[v] == best) {
      comp_local[v] = static_cast<NodeId>(ref.component_global.size());
      ref.component_global.push_back(ref.survivor_global[v]);
    }
  }
  GraphBuilder cb(ref.component_global.size());
  for (const auto& [u, v] : ref.survivor_graph.EdgeList()) {
    if (comp_local[u] != kInvalidNode && comp_local[v] != kInvalidNode) {
      cb.AddEdge(comp_local[u], comp_local[v]);
    }
  }
  ref.largest_component = std::move(cb).Build();
  return ref;
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "node " << v;
  }
}

void ExpectMatchesReference(const ChurnResult& r, const Reference& ref) {
  EXPECT_EQ(r.survivors, ref.survivor_global.size());
  EXPECT_EQ(r.survivor_global, ref.survivor_global);
  EXPECT_EQ(r.num_components, ref.num_components);
  EXPECT_EQ(r.component_global, ref.component_global);
  ExpectSameGraph(r.largest_component, ref.largest_component);
}

/// largest_component is the subgraph of g induced by component_global:
/// members are alive and ascending, every component edge is a g-edge, every
/// g-edge between two members is present, neighbour lists are sorted, and
/// no alive-alive g-edge leaves the component.
void ExpectInducedComponent(const Graph& g, const ChurnResult& r) {
  const Graph& c = r.largest_component;
  ASSERT_EQ(c.num_nodes(), r.component_global.size());
  EXPECT_TRUE(std::is_sorted(r.component_global.begin(),
                             r.component_global.end()));
  std::vector<NodeId> local(g.num_nodes(), kInvalidNode);
  for (NodeId i = 0; i < r.component_global.size(); ++i) {
    EXPECT_TRUE(r.alive[r.component_global[i]]);
    local[r.component_global[i]] = i;
  }
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    const auto nbrs = c.Neighbors(v);
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end(),
                                   std::greater_equal<NodeId>()) == nbrs.end())
        << "neighbours of " << v << " not strictly ascending";
  }
  std::size_t member_edges = 0;
  for (const auto& [u, v] : g.EdgeList()) {
    const bool in_u = local[u] != kInvalidNode;
    const bool in_v = local[v] != kInvalidNode;
    if (in_u && in_v) {
      ++member_edges;
      EXPECT_TRUE(c.HasEdge(local[u], local[v]));
    } else if (in_u || in_v) {
      EXPECT_FALSE(r.alive[u] && r.alive[v]) << "edge " << u << "-" << v;
    }
  }
  EXPECT_EQ(c.num_edges(), member_edges);
  for (const auto& [lu, lv] : c.EdgeList()) {
    EXPECT_TRUE(g.HasEdge(r.component_global[lu], r.component_global[lv]));
  }
}

TEST(Churn, SerialPathConsumesCallerRngInNodeOrder) {
  // The S=1 contract: alive flags must equal a direct NextBool sweep on an
  // identically seeded RNG (the historical example/bench stream).
  const Graph g = gen::ConnectedGnp(200, 0.05, 3);
  Rng expect_rng(77);
  Rng rng(77);
  const ChurnResult r =
      ApplyChurn(g, {.failure_prob = 0.3, .exec = {.num_shards = 1}}, rng);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(r.alive[v] != 0, !expect_rng.NextBool(0.3)) << "node " << v;
  }
}

TEST(Churn, DeterministicForFixedSeedAndShards) {
  const Graph g = gen::ConnectedGnp(300, 0.03, 5);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    Rng rng_a(9);
    Rng rng_b(9);
    const ChurnResult a =
        ApplyChurn(g, {.failure_prob = 0.25, .exec = {.num_shards = shards}}, rng_a);
    const ChurnResult b =
        ApplyChurn(g, {.failure_prob = 0.25, .exec = {.num_shards = shards}}, rng_b);
    EXPECT_EQ(a.alive, b.alive) << "shards " << shards;
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.survivor_global, b.survivor_global);
    EXPECT_EQ(a.num_components, b.num_components);
    EXPECT_EQ(a.component_global, b.component_global);
    EXPECT_EQ(a.largest_component.EdgeList(), b.largest_component.EdgeList());
  }
}

TEST(Churn, LargestComponentIsTheInducedSubgraph) {
  const Graph g = gen::ConnectedGnp(150, 0.06, 11);
  Rng rng(123);
  const ChurnResult r =
      ApplyChurn(g, {.failure_prob = 0.4, .exec = {.num_shards = 4}}, rng);

  ASSERT_EQ(r.survivor_global.size(), r.survivors);
  for (const NodeId v : r.survivor_global) EXPECT_TRUE(r.alive[v]);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(r.alive.begin(), r.alive.end(), char{1})),
            r.survivors);
  ExpectInducedComponent(g, r);
}

TEST(Churn, LargestComponentIsConnectedAndMaximal) {
  const Graph g = gen::ConnectedGnp(200, 0.02, 17);
  Rng rng(31);
  const ChurnResult r =
      ApplyChurn(g, {.failure_prob = 0.5, .exec = {.num_shards = 2}}, rng);
  if (r.component_global.empty()) {
    EXPECT_EQ(r.survivors, 0u);
    return;
  }
  EXPECT_TRUE(IsConnected(r.largest_component));
  const Reference ref = ReferenceExtract(g, r.alive);
  const auto sizes = ComponentSizes(ref.labels);
  EXPECT_EQ(r.num_components, sizes.size());
  EXPECT_EQ(r.component_global.size(),
            *std::max_element(sizes.begin(), sizes.end()));
  EXPECT_GE(r.Cohesion(), 0.0);
  EXPECT_LE(r.Cohesion(), 1.0);
  // Component members are survivors.
  const std::set<NodeId> surv(r.survivor_global.begin(),
                              r.survivor_global.end());
  for (const NodeId v : r.component_global) EXPECT_TRUE(surv.count(v) > 0);
}

TEST(Churn, ZeroFailureKeepsEverything) {
  const Graph g = gen::Line(64);
  for (const std::size_t shards : {1u, 3u}) {
    Rng rng(1);
    const ChurnResult r =
        ApplyChurn(g, {.failure_prob = 0.0, .exec = {.num_shards = shards}}, rng);
    EXPECT_EQ(r.survivors, g.num_nodes());
    EXPECT_EQ(r.component_global.size(), g.num_nodes());
    EXPECT_EQ(r.largest_component.num_edges(), g.num_edges());
    EXPECT_EQ(r.num_components, 1u);
    EXPECT_DOUBLE_EQ(r.Cohesion(), 1.0);
  }
}

TEST(Churn, CertainFailureKillsEverything) {
  const Graph g = gen::Line(32);
  Rng rng(1);
  const ChurnResult r =
      ApplyChurn(g, {.failure_prob = 1.0, .exec = {.num_shards = 4}}, rng);
  EXPECT_EQ(r.survivors, 0u);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_TRUE(r.component_global.empty());
  EXPECT_EQ(r.largest_component.num_nodes(), 0u);
  EXPECT_DOUBLE_EQ(r.Cohesion(), 0.0);
}

TEST(Churn, ExtractionIsShardCountInvariantGivenSameAliveSet) {
  // One fixed alive mask, extracted at several shard counts: extraction is
  // randomness-free, so everything it returns must be identical.
  const Graph g = gen::ConnectedGnp(250, 0.04, 23);
  Rng rng(5);
  std::vector<char> alive(g.num_nodes());
  for (auto& a : alive) a = !rng.NextBool(0.3);

  const ChurnResult want = ExtractSurvivors(g, alive, {.num_shards = 1});
  ASSERT_GT(want.component_global.size(), 1u);
  for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const ChurnResult got = ExtractSurvivors(g, alive, {.num_shards = shards});
    EXPECT_EQ(got.alive, want.alive);
    EXPECT_EQ(got.survivor_global, want.survivor_global);
    EXPECT_EQ(got.component_global, want.component_global);
    EXPECT_EQ(got.num_components, want.num_components);
    ExpectSameGraph(got.largest_component, want.largest_component);
  }
}

TEST(Churn, MatchesReferencePipeline) {
  // Isolated nodes sit between and after the other parts of the union.
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"gnp", gen::ConnectedGnp(400, 0.01, 7)},
      {"line", gen::Line(300)},
      {"union", gen::DisjointUnion({gen::ConnectedGnp(120, 0.04, 3),
                                    GraphBuilder(5).Build(), gen::Line(60),
                                    gen::Cycle(40), GraphBuilder(3).Build()})},
  };
  for (const auto& [name, g] : graphs) {
    const std::size_t n = g.num_nodes();
    std::vector<std::pair<std::string, std::vector<char>>> masks = {
        {"all alive", std::vector<char>(n, 1)},
        {"all dead", std::vector<char>(n, 0)},
    };
    std::vector<char> single(n, 0);
    single[n / 2] = 1;
    masks.emplace_back("single survivor", single);
    for (const double p : {0.001, 0.3, 0.9}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        Rng rng(seed);
        std::vector<char> alive(n);
        for (auto& a : alive) a = !rng.NextBool(p);
        masks.emplace_back("p=" + std::to_string(p) + " seed " +
                               std::to_string(seed),
                           alive);
      }
    }
    for (const auto& [mask_name, alive] : masks) {
      const Reference ref = ReferenceExtract(g, alive);
      for (const std::size_t shards : {1u, 4u}) {
        SCOPED_TRACE(name + ", " + mask_name + ", shards " +
                     std::to_string(shards));
        const ChurnResult r =
            ExtractSurvivors(g, alive, {.num_shards = shards});
        ExpectMatchesReference(r, ref);
        ExpectInducedComponent(g, r);
      }
    }
  }
}

TEST(Churn, TieForLargestPicksTheLowestLabelledComponent) {
  // Components are labelled in ascending order of their smallest member, and
  // the first of several equal-sized largest ones wins.
  const Graph parts =
      gen::DisjointUnion({gen::Line(2), gen::Line(4), gen::Cycle(4)});
  const ChurnResult a = ExtractSurvivors(parts, std::vector<char>(10, 1));
  EXPECT_EQ(a.num_components, 3u);
  EXPECT_EQ(a.component_global, (std::vector<NodeId>{2, 3, 4, 5}));
  ExpectMatchesReference(a, ReferenceExtract(parts, a.alive));

  // A strike that splits a line in two equal halves keeps the left one.
  const Graph line = gen::Line(9);
  std::vector<char> alive(9, 1);
  alive[4] = 0;
  for (const std::size_t shards : {1u, 4u}) {
    const ChurnResult b = ExtractSurvivors(line, alive, {.num_shards = shards});
    EXPECT_EQ(b.num_components, 2u);
    EXPECT_EQ(b.component_global, (std::vector<NodeId>{0, 1, 2, 3}));
    ExpectMatchesReference(b, ReferenceExtract(line, alive));
  }
}

}  // namespace
}  // namespace overlay
