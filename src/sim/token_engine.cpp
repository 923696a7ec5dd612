#include "sim/token_engine.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace overlay {

/// The token-range walk program (layout and contract in the header). Shard
/// s owns origin block [s·B, (s+1)·B) — token indices [lo·T, hi·T) — in
/// phases 0 and 3 and node block s in phases 1 and 2. Its count slab holds
/// ℓ rows of n arrival counts, one per step; phases 1–2 overwrite the final
/// row with the shard's scatter cursors.
TokenWalkResult RunTokenWalks(const Multigraph& g, const TokenWalkOptions& opts,
                              Rng& rng) {
  OVERLAY_CHECK(opts.tokens_per_node >= 1, "need at least one token per node");
  OVERLAY_CHECK(opts.walk_length >= 1, "walks must take at least one step");
  OVERLAY_CHECK(opts.exec.num_shards >= 1, "need at least one shard");
  const std::size_t n = g.num_nodes();
  const std::size_t tokens_per_node = opts.tokens_per_node;
  const std::size_t steps = opts.walk_length;
  const std::size_t num_tokens = n * tokens_per_node;
  OVERLAY_CHECK(num_tokens <= std::numeric_limits<std::uint32_t>::max(),
                "token indices must fit the 32-bit join column");
  const bool record = opts.record_paths;
  const std::size_t stride = steps + 1;

  TokenWalkResult result;
  result.tokens_per_node = tokens_per_node;
  result.token_steps = num_tokens * steps;
  result.arrival_offsets.resize(n + 1);
  result.arrival_origins.resize(num_tokens);
  if (record) {
    result.arrival_token.resize(num_tokens);
    result.path_stride = stride;
    result.path_nodes.resize(num_tokens * stride);
  }
  if (n == 0) return result;
  result.arrival_offsets[n] = num_tokens;

  const std::size_t S = opts.exec.ShardsFor(n);
  const std::size_t block = (n + S - 1) / S;  // RunShardedBlocks' blocks
  std::vector<Rng> shard_rng;
  if (S > 1) {
    shard_rng.reserve(S);
    for (std::size_t s = 0; s < S; ++s) shard_rng.push_back(rng.Split());
  }
  const auto position = std::make_unique_for_overwrite<NodeId[]>(num_tokens);
  const std::size_t slab_size = steps * n;
  const std::size_t last_row = (steps - 1) * n;
  const auto slab =
      std::make_unique_for_overwrite<std::uint32_t[]>(S * slab_size);
  // Per-block results of phase 1, one cache line each.
  struct alignas(64) BlockTally {
    std::uint64_t max_load = 0;
    std::size_t total = 0;  ///< tokens ending in the block
    std::size_t base = 0;   ///< arrival offset of the block's first node
  };
  std::vector<BlockTally> tally(S);

  NodeId* const pos = position.get();
  NodeId* const path = result.path_nodes.data();

  // Phase 0, by token range: place the shard's tokens, walk all ℓ steps in
  // (step, token-index) order on a local copy of the shard's stream (the
  // caller's at S=1), count each step's arrivals into the shard's own slab.
  const auto walk = [&](std::size_t s, std::size_t lo, std::size_t hi) {
    std::uint32_t* const counts = slab.get() + s * slab_size;
    std::fill_n(counts, slab_size, 0u);
    const std::size_t first = lo * tokens_per_node;
    const std::size_t end = hi * tokens_per_node;
    for (NodeId v = static_cast<NodeId>(lo); v < hi; ++v) {
      std::fill_n(pos + v * tokens_per_node, tokens_per_node, v);
    }
    if (record) {
      for (std::size_t i = first; i < end; ++i) path[i * stride] = pos[i];
    }
    Rng& stream = S == 1 ? rng : shard_rng[s];
    Rng r = stream;
    for (std::size_t step = 0; step < steps; ++step) {
      std::uint32_t* const load = counts + step * n;
      for (std::size_t i = first; i < end; ++i) {
        const NodeId next = g.RandomNeighbor(pos[i], r);
        pos[i] = next;
        ++load[next];
        if (record) path[i * stride + step + 1] = next;
      }
    }
    stream = r;
  };

  // Phase 1, by node block: the exact Lemma 3.2 load (per node, per step,
  // summed over shards); the final row becomes block-local exclusive
  // prefixes in (node, shard) order — token-index order inside a node.
  const auto reduce = [&](std::size_t b, std::size_t lo, std::size_t hi) {
    std::uint64_t max_load = 0;
    for (std::size_t row = 0; row < last_row; row += n) {
      for (std::size_t v = lo; v < hi; ++v) {
        std::uint64_t load = 0;
        for (std::size_t s = 0; s < S; ++s) {
          load += slab[s * slab_size + row + v];
        }
        max_load = std::max(max_load, load);
      }
    }
    std::size_t at = 0;
    for (std::size_t v = lo; v < hi; ++v) {
      const std::size_t start = at;
      for (std::size_t s = 0; s < S; ++s) {
        std::uint32_t& count = slab[s * slab_size + last_row + v];
        const std::uint32_t c = count;
        count = static_cast<std::uint32_t>(at);
        at += c;
      }
      max_load = std::max<std::uint64_t>(max_load, at - start);
    }
    tally[b].max_load = max_load;
    tally[b].total = at;
  };

  // Phase 2, by node block: absolute offsets, prefixes become cursors.
  const auto place = [&](std::size_t b, std::size_t lo, std::size_t hi) {
    const auto base = static_cast<std::uint32_t>(tally[b].base);
    for (std::size_t v = lo; v < hi; ++v) {
      result.arrival_offsets[v] = base + slab[last_row + v];
      for (std::size_t s = 0; s < S; ++s) {
        slab[s * slab_size + last_row + v] += base;
      }
    }
  };

  // Phase 3, by token range: scatter in token-index order.
  const auto scatter = [&](std::size_t s, std::size_t lo, std::size_t hi) {
    std::uint32_t* const cursor = slab.get() + s * slab_size + last_row;
    std::size_t i = lo * tokens_per_node;
    for (NodeId v = static_cast<NodeId>(lo); v < hi; ++v) {
      for (std::size_t t = 0; t < tokens_per_node; ++t, ++i) {
        const std::uint32_t slot = cursor[pos[i]]++;
        result.arrival_origins[slot] = v;
        if (record) result.arrival_token[slot] = static_cast<std::uint32_t>(i);
      }
    }
  };

  opts.exec.Pool().RunPhased(
      S, 4,
      [&](std::size_t s, std::size_t phase) {
        const std::size_t lo = std::min(n, s * block);
        const std::size_t hi = std::min(n, lo + block);
        switch (phase) {
          case 0: walk(s, lo, hi); break;
          case 1: reduce(s, lo, hi); break;
          case 2: place(s, lo, hi); break;
          default: scatter(s, lo, hi); break;
        }
      },
      [&](std::size_t phase) {
        if (phase != 1) return;
        std::size_t base = 0;
        for (BlockTally& t : tally) {
          t.base = base;
          base += t.total;
          result.max_load = std::max(result.max_load, t.max_load);
        }
      });
  return result;
}

void TokenWalkResult::PermuteArrivalBucket(NodeId v,
                                           std::span<const std::uint32_t> perm) {
  const std::size_t lo = arrival_offsets[v];
  const std::size_t count = arrival_offsets[v + 1] - lo;
  OVERLAY_CHECK(perm.size() == count,
                "permutation size must match the arrival bucket");
  std::vector<NodeId> old_origins(arrival_origins.begin() + lo,
                                  arrival_origins.begin() + lo + count);
  for (std::size_t i = 0; i < count; ++i) {
    arrival_origins[lo + i] = old_origins[perm[i]];
  }
  if (path_stride != 0) {
    std::vector<std::uint32_t> old_tokens(arrival_token.begin() + lo,
                                          arrival_token.begin() + lo + count);
    for (std::size_t i = 0; i < count; ++i) {
      arrival_token[lo + i] = old_tokens[perm[i]];
    }
  }
}

}  // namespace overlay
