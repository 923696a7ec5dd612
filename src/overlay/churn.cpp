#include "overlay/churn.hpp"

#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace overlay {

ChurnResult ApplyChurn(const Graph& g, const ChurnOptions& opts, Rng& rng) {
  OVERLAY_CHECK(opts.failure_prob >= 0.0 && opts.failure_prob <= 1.0,
                "failure probability must be in [0, 1]");
  const std::size_t n = g.num_nodes();
  const std::size_t shards = opts.exec.ShardsFor(n);

  std::vector<char> alive(n, 1);

  // Kill pass. Serial consumes `rng` in node order (the historical stream);
  // sharded gives every contiguous node block its own split stream, blocks
  // claimed work-stealing (the block→stream map is fixed by (seed, shards),
  // so outcomes are scheduling-independent; stealing only rebalances which
  // worker draws them).
  if (shards <= 1) {
    for (NodeId v = 0; v < n; ++v) {
      alive[v] = !rng.NextBool(opts.failure_prob);
    }
  } else {
    std::vector<Rng> block_rng;
    block_rng.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) block_rng.push_back(rng.Split());
    RunDynamicBlocks(opts.exec.Pool(), n, shards, shards,
                     [&](std::size_t c, std::size_t lo, std::size_t hi) {
                       Rng& r = block_rng[c];
                       for (std::size_t v = lo; v < hi; ++v) {
                         alive[v] = !r.NextBool(opts.failure_prob);
                       }
                     });
  }

  return ExtractSurvivors(g, std::move(alive), opts.exec);
}

ChurnResult ApplyStrike(const Graph& g, std::span<const NodeId> victims,
                        const ExecPolicy& exec) {
  std::vector<char> alive(g.num_nodes(), 1);
  for (const NodeId v : victims) {
    OVERLAY_CHECK(v < g.num_nodes(), "strike victim out of range");
    alive[v] = 0;
  }
  return ExtractSurvivors(g, std::move(alive), exec);
}

ChurnResult ExtractSurvivors(const Graph& g, std::vector<char> alive,
                             const ExecPolicy& exec) {
  OVERLAY_CHECK(alive.size() == g.num_nodes(), "alive mask size mismatch");
  const std::size_t n = g.num_nodes();

  // Components of the survivor-induced subgraph: one flat-queue BFS over g
  // that skips dead nodes. Starts ascend, so labels, count and the first-max
  // tie-break are those of labelling the induced subgraph itself. Dead nodes
  // carry a label no component takes, so the BFS tests one array per edge.
  constexpr std::uint32_t kNoLabel = 0xffffffffu;
  constexpr std::uint32_t kDead = 0xfffffffeu;
  ChurnResult result;
  result.alive = std::move(alive);
  std::vector<std::uint32_t> label(n, kDead);
  for (NodeId v = 0; v < n; ++v) {
    if (result.alive[v]) {
      label[v] = kNoLabel;
      result.survivor_global.push_back(v);
    }
  }
  result.survivors = result.survivor_global.size();
  std::vector<NodeId> queue(result.survivors);
  std::size_t tail = 0;
  std::size_t best_size = 0;
  std::uint32_t best = 0;
  for (const NodeId start : result.survivor_global) {
    if (label[start] != kNoLabel) continue;
    const auto c = static_cast<std::uint32_t>(result.num_components++);
    const std::size_t first = tail;
    label[start] = c;
    queue[tail++] = start;
    for (std::size_t head = first; head < tail; ++head) {
      for (const NodeId w : g.Neighbors(queue[head])) {
        if (label[w] == kNoLabel) {
          label[w] = c;
          queue[tail++] = w;
        }
      }
    }
    if (tail - first > best_size) {
      best_size = tail - first;
      best = c;
    }
  }

  // Largest component: its members renamed in ascending order, then one
  // sort-free induced CSR straight from g's.
  std::vector<NodeId> new_id(n, kInvalidNode);
  result.component_global.reserve(best_size);
  for (const NodeId v : result.survivor_global) {
    if (label[v] == best) {
      new_id[v] = static_cast<NodeId>(result.component_global.size());
      result.component_global.push_back(v);
    }
  }
  result.largest_component = g.InducedSubgraph(new_id, exec);
  return result;
}

}  // namespace overlay
