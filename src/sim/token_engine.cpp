#include "sim/token_engine.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace overlay {

namespace {

/// Seeds result.token_origin / the walker start positions (v-major token
/// order: node v owns token indices [v·T, (v+1)·T)) and, when requested,
/// the flat path matrix with column 0 = origin.
void InitTokens(std::size_t n, const TokenWalkOptions& opts,
                std::vector<NodeId>& position, TokenWalkResult& result) {
  const std::size_t num_tokens = n * opts.tokens_per_node;
  result.token_origin.reserve(num_tokens);
  position.reserve(num_tokens);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t t = 0; t < opts.tokens_per_node; ++t) {
      position.push_back(v);
      result.token_origin.push_back(v);
    }
  }
  if (opts.record_paths) {
    // One flat matrix instead of num_tokens vectors: row i is token i's
    // sequence; column 0 is the origin.
    const std::size_t stride = opts.walk_length + 1;
    result.path_stride = stride;
    result.path_nodes.assign(num_tokens * stride, kInvalidNode);
    for (std::size_t i = 0; i < num_tokens; ++i) {
      result.path_nodes[i * stride] = position[i];
    }
  }
}

/// Arrivals as a CSR in (node, token-index) order — a stable counting sort
/// by final position, matching the per-node push_back order the per-node
/// vectors used to accumulate. Token-index order is part of the output
/// contract: the walker-bucketed engine's internal bucket order must never
/// leak into the CSR, so both engines finalize through this one pass.
void FinalizeArrivals(std::size_t n, std::span<const NodeId> position,
                      bool record_paths, TokenWalkResult& result) {
  const std::size_t num_tokens = position.size();
  std::vector<std::size_t>& offsets = result.arrival_offsets;
  offsets.assign(n + 1, 0);
  for (const NodeId at : position) ++offsets[at + 1];
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  result.arrival_origins.resize(num_tokens);
  if (record_paths) result.arrival_token.resize(num_tokens);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < num_tokens; ++i) {
    const std::size_t slot = cursor[position[i]]++;
    result.arrival_origins[slot] = result.token_origin[i];
    if (record_paths) {
      result.arrival_token[slot] = static_cast<std::uint32_t>(i);
    }
  }
}

/// The token-major serial loop: tokens in index order, caller's RNG
/// consumed directly — the historical stream, bit for bit.
void WalkTokenMajor(const Multigraph& g, const TokenWalkOptions& opts,
                    Rng& rng, std::vector<NodeId>& position,
                    TokenWalkResult& result) {
  const std::size_t n = g.num_nodes();
  const std::size_t num_tokens = position.size();
  const std::size_t stride = opts.walk_length + 1;
  std::vector<std::uint32_t> load(n, 0);
  for (std::size_t step = 0; step < opts.walk_length; ++step) {
    std::fill(load.begin(), load.end(), 0u);
    for (std::size_t i = 0; i < num_tokens; ++i) {
      const NodeId next = g.RandomNeighbor(position[i], rng);
      position[i] = next;
      ++load[next];
      if (opts.record_paths) {
        result.path_nodes[i * stride + step + 1] = next;
      }
    }
    result.token_steps += num_tokens;
    const auto step_max = *std::max_element(load.begin(), load.end());
    result.max_load = std::max<std::uint64_t>(result.max_load, step_max);
  }
}

/// The walker-bucketed engine (flashmob-style): walkers stay bucketed by
/// current shard — shard s owns the contiguous node block
/// [s·block, (s+1)·block) — and every step runs two barrier phases on the
/// pool:
///
///   phase A, by source shard: scan the shard's bucket in order drawing
///     next slots from a local copy of the shard's split RNG stream (all
///     neighbor-slot reads are block-local), then counting-sort the moved
///     walkers into per-destination-shard runs inside the shard's own
///     staging segment;
///   phase boundary: fold the S×S run-count matrix into next-bucket
///     offsets and absolute run starts (O(S²) scalar work);
///   phase B, by destination shard: concatenate the incoming runs in fixed
///     source-shard order into the next bucket and count per-local-node
///     loads destination-side; the boundary folds the per-shard maxima
///     into max_load (the Lemma 3.2 accounting, exact per node per step).
///
/// Every buffer is hoisted here, before the step loop: the steady state is
/// allocation-free. The RNG stream of shard s is fixed by (caller seed, S)
/// and consumed in bucket order, which is itself a deterministic function
/// of the previous step — so a fixed (seed, num_shards) replays
/// bit-identically however phases land on workers.
void WalkBucketed(const Multigraph& g, const TokenWalkOptions& opts, Rng& rng,
                  std::size_t shards, std::vector<NodeId>& position,
                  TokenWalkResult& result) {
  const std::size_t n = g.num_nodes();
  const std::size_t num_tokens = position.size();
  const std::size_t stride = opts.walk_length + 1;
  const std::size_t S = shards;
  const std::size_t block = (n + S - 1) / S;
  const auto shard_of = [block](NodeId v) {
    return static_cast<std::size_t>(v) / block;
  };

  // Per-shard RNG streams keyed by shard index, hoisted across all steps.
  std::vector<Rng> shard_rng;
  shard_rng.reserve(S);
  for (std::size_t s = 0; s < S; ++s) shard_rng.push_back(rng.Split());

  // Walker buckets: (cur_pos, cur_tid) bucketed by current shard, bucket s
  // spanning [bucket_off[s], bucket_off[s+1]). raw_next stages phase A's
  // draws; (run_pos, run_tid) hold the per-(source, destination) runs; the
  // next bucket layout is written back into (cur_pos, cur_tid), whose old
  // values are dead once phase A scattered them.
  std::vector<NodeId> cur_pos(num_tokens), raw_next(num_tokens),
      run_pos(num_tokens);
  std::vector<std::uint32_t> cur_tid(num_tokens), run_tid(num_tokens);
  std::vector<std::size_t> bucket_off(S + 1, 0), new_off(S + 1, 0);

  // Initial positions are v-major ascending, hence already bucket-sorted;
  // token-index order within each bucket.
  for (const NodeId v : position) ++bucket_off[shard_of(v) + 1];
  for (std::size_t s = 0; s < S; ++s) bucket_off[s + 1] += bucket_off[s];
  std::copy(position.begin(), position.end(), cur_pos.begin());
  std::iota(cur_tid.begin(), cur_tid.end(), 0u);

  // Phase A's per-shard counters, one row per source shard:
  // cnt[s·cnt_row + d] = walkers moving s→d this step, followed by the
  // shard's S scatter cursors. Rows are padded by a cache line, so no two
  // shards' hot counters share one. run_start[s·S + d] = the absolute start
  // of run (s, d) in run_pos/run_tid.
  constexpr std::size_t kLineWords = 64 / sizeof(std::size_t);
  const std::size_t cnt_row = 2 * S + kLineWords;
  std::vector<std::size_t> cnt(S * cnt_row, 0), run_start(S * S, 0);
  // Destination-side load counters over each shard's local node block.
  std::vector<std::vector<std::uint32_t>> shard_load(S);
  for (std::size_t s = 0; s < S; ++s) {
    const std::size_t lo = std::min(n, s * block);
    const std::size_t hi = std::min(n, lo + block);
    shard_load[s].assign(hi - lo, 0u);
  }
  std::vector<std::uint64_t> shard_max(S, 0);
  const bool record = opts.record_paths;

  const auto phase_a = [&](std::size_t s, std::size_t step) {
    const std::size_t lo = bucket_off[s];
    const std::size_t hi = bucket_off[s + 1];
    std::size_t* const my_cnt = cnt.data() + s * cnt_row;
    std::size_t* const my_cur = my_cnt + S;
    std::fill(my_cnt, my_cnt + S, 0);
    // The shard's stream is copied into a local for the phase and written
    // back once at its end: drawing in place would write the shared
    // shard_rng array on every step.
    Rng my_rng = shard_rng[s];
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId next = g.RandomNeighbor(cur_pos[i], my_rng);
      raw_next[i] = next;
      ++my_cnt[shard_of(next)];
      if (record) {
        result.path_nodes[cur_tid[i] * stride + step + 1] = next;
      }
    }
    shard_rng[s] = my_rng;
    // Counting-sort scatter into per-destination runs inside [lo, hi) —
    // stable, so within a run walkers keep their bucket-scan order.
    my_cur[0] = lo;
    for (std::size_t d = 1; d < S; ++d) my_cur[d] = my_cur[d - 1] + my_cnt[d - 1];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t slot = my_cur[shard_of(raw_next[i])]++;
      run_pos[slot] = raw_next[i];
      run_tid[slot] = cur_tid[i];
    }
  };

  const auto phase_b = [&](std::size_t d) {
    // Gather: incoming runs concatenate in fixed source-shard order (and
    // keep their intra-run order) — deterministic, scheduling-free.
    std::size_t out = new_off[d];
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t c = cnt[s * cnt_row + d];
      const std::size_t src = run_start[s * S + d];
      std::copy_n(run_pos.begin() + src, c, cur_pos.begin() + out);
      std::copy_n(run_tid.begin() + src, c, cur_tid.begin() + out);
      out += c;
    }
    // Offered-load accounting, destination-side: exact per-node counts
    // over this shard's local block after the move.
    auto& load = shard_load[d];
    std::fill(load.begin(), load.end(), 0u);
    const std::size_t base = d * block;
    for (std::size_t i = new_off[d]; i < new_off[d + 1]; ++i) {
      ++load[cur_pos[i] - base];
    }
    std::uint64_t mx = 0;
    for (const std::uint32_t x : load) mx = std::max<std::uint64_t>(mx, x);
    shard_max[d] = mx;
  };

  const auto between = [&](std::size_t phase) {
    if ((phase & 1) == 0) {
      // After phase A: next-bucket offsets + absolute run starts.
      new_off[0] = 0;
      for (std::size_t d = 0; d < S; ++d) {
        std::size_t total = 0;
        for (std::size_t s = 0; s < S; ++s) total += cnt[s * cnt_row + d];
        new_off[d + 1] = new_off[d] + total;
      }
      for (std::size_t s = 0; s < S; ++s) {
        std::size_t at = bucket_off[s];
        for (std::size_t d = 0; d < S; ++d) {
          run_start[s * S + d] = at;
          at += cnt[s * cnt_row + d];
        }
      }
    } else {
      // After phase B: fold the step's load maxima, advance the buckets.
      std::uint64_t step_max = 0;
      for (const std::uint64_t mx : shard_max) step_max = std::max(step_max, mx);
      result.max_load = std::max(result.max_load, step_max);
      result.token_steps += num_tokens;
      std::swap(bucket_off, new_off);
    }
  };

  opts.exec.Pool().RunPhased(
      S, 2 * opts.walk_length,
      [&](std::size_t s, std::size_t phase) {
        if ((phase & 1) == 0) {
          phase_a(s, phase >> 1);
        } else {
          phase_b(s);
        }
      },
      between);

  // Back to token-index order for the shared CSR finalization: bucket
  // order dies here.
  for (std::size_t i = 0; i < num_tokens; ++i) {
    position[cur_tid[i]] = cur_pos[i];
  }
}

void CheckWalkOptions(const TokenWalkOptions& opts) {
  OVERLAY_CHECK(opts.tokens_per_node >= 1, "need at least one token per node");
  OVERLAY_CHECK(opts.walk_length >= 1, "walks must take at least one step");
  OVERLAY_CHECK(opts.exec.num_shards >= 1, "need at least one shard");
}

}  // namespace

TokenWalkResult RunTokenWalks(const Multigraph& g, const TokenWalkOptions& opts,
                              Rng& rng) {
  CheckWalkOptions(opts);
  const std::size_t n = g.num_nodes();

  TokenWalkResult result;
  std::vector<NodeId> position;
  InitTokens(n, opts, position, result);
  if (!position.empty()) {
    const std::size_t shards = opts.exec.ShardsFor(n);
    if (shards <= 1) {
      // Serial fast path: the token-major loop, consuming the caller's RNG
      // directly — the historical stream bit for bit.
      WalkTokenMajor(g, opts, rng, position, result);
    } else {
      WalkBucketed(g, opts, rng, shards, position, result);
    }
  }
  FinalizeArrivals(n, position, opts.record_paths, result);
  return result;
}

TokenWalkResult RunTokenWalksTokenMajor(const Multigraph& g,
                                        const TokenWalkOptions& opts,
                                        Rng& rng) {
  CheckWalkOptions(opts);
  const std::size_t n = g.num_nodes();

  TokenWalkResult result;
  std::vector<NodeId> position;
  InitTokens(n, opts, position, result);
  if (!position.empty()) {
    WalkTokenMajor(g, opts, rng, position, result);
  }
  FinalizeArrivals(n, position, opts.record_paths, result);
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
