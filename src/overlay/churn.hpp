// Churn driver: random node failures and survivor extraction (Section 1.4).
//
// The paper's robustness story is rebuild-not-repair: under independent node
// failures a logarithmic minimum cut keeps the network connected w.h.p., so
// an overlay epoch kills a random fraction of nodes, keeps the connected
// wreckage, and reconstructs from scratch in O(log n). This module is the
// engine-side half of that loop — the churn strike and the survivor
// extraction — shared by the churn example, the robustness bench, and the
// 1M-node churn scenarios.
//
// Extraction is O(n + m) and sort-free: one flat-queue BFS over `g` that
// skips dead nodes labels the survivors' components, and the largest one is
// cut out of `g`'s CSR by Graph::InducedSubgraph (the ascending renaming of
// its members keeps every neighbour list sorted). The full survivor graph is
// never materialised.
//
// Sharded compute: the kill pass and the two induced-CSR passes run in
// contiguous blocks on the persistent shard pool (sim/shard_pool.hpp),
// claimed work-stealing (ShardPool::RunDynamic) because a strike leaves
// per-block costs skewed; the kill pass keeps one split RNG stream per
// block so outcomes never depend on which worker draws them. See ExecPolicy
// (sim/engine.hpp) for the shared determinism contract: one shard consumes
// the caller's RNG serially (the exact historical stream of the pre-module
// example code); any fixed (rng state, num_shards) pair is deterministic
// regardless of thread scheduling.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"

namespace overlay {

struct ChurnOptions {
  /// Independent per-node failure probability.
  double failure_prob = 0.0;
  /// Execution context for the kill and induced-CSR passes (sim/engine.hpp).
  ExecPolicy exec;
};

/// One churn strike against `g`.
struct ChurnResult {
  /// alive[v] = node v survived.
  std::vector<char> alive;
  std::size_t survivors = 0;

  /// Global ids of the survivors, ascending.
  std::vector<NodeId> survivor_global;

  /// Largest connected component of the survivor-induced subgraph (the
  /// lowest-labelled one on a tie, labels ascending by smallest member),
  /// re-indexed densely in ascending global-id order.
  Graph largest_component;
  /// Global id of component-local node i (ascending).
  std::vector<NodeId> component_global;
  /// Connected components among the survivors.
  std::size_t num_components = 0;

  /// Fraction of survivors inside the largest component (0 when everybody
  /// died) — the cohesion number the robustness experiments plot.
  double Cohesion() const {
    return survivors == 0
               ? 0.0
               : static_cast<double>(component_global.size()) /
                     static_cast<double>(survivors);
  }
};

/// Kills each node of `g` independently with probability
/// `opts.failure_prob`, then extracts the survivors' largest component.
/// `rng` supplies the kill randomness (consumed directly at one shard; split
/// into per-shard streams otherwise).
ChurnResult ApplyChurn(const Graph& g, const ChurnOptions& opts, Rng& rng);

/// The strike-agnostic second half of ApplyChurn: given an explicit alive
/// mask (alive.size() == g.num_nodes()), labels the survivors' components
/// and extracts the largest one with the cohesion accounting, in O(n + m)
/// and without sorting. Randomness-free, so the result is shard-count-
/// invariant; the induced-CSR passes run work-stealing on the shard pool.
/// This is the seam the adversary subsystem targets: any victim-selection
/// policy composes with it.
ChurnResult ExtractSurvivors(const Graph& g, std::vector<char> alive,
                             const ExecPolicy& exec = {});

/// Kills exactly the listed victims (out-of-range ids rejected, duplicates
/// tolerated) and extracts the survivors. The adversary's strike → wreckage
/// step.
ChurnResult ApplyStrike(const Graph& g, std::span<const NodeId> victims,
                        const ExecPolicy& exec = {});

}  // namespace overlay
