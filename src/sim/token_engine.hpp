// Walker-centric random-walk token engine (fast path of the simulator).
//
// CreateExpander moves n·Δ/8 tokens for ℓ rounds per evolution. Routing each
// token as a generic Message through SyncNetwork works but dominates runtime
// at n = 2^15+, so this engine moves tokens directly over multigraph slot
// arrays with *identical* semantics: one uniform incident slot per token per
// round, per-node offered-load accounting per round, drop-free (Lemma 3.2:
// loads stay below 3Δ/8 w.h.p., which the caller checks via max_offered_load).
// tests/token_engine_test.cpp verifies the endpoint distribution matches
// the generic message-passing engine statistically.
//
// Execution layout (flashmob-style walker batching): above one shard the
// engine keeps the active walkers *bucketed by current shard* — shard s owns
// the contiguous node block [s·B, (s+1)·B) — and each step runs two
// barrier-synchronized phases on the ShardPool:
//
//   phase A (by source shard): scan the shard's walker bucket in order,
//     drawing each walker's next slot from the shard's split RNG stream —
//     every neighbor-slot read falls inside the shard's node block, so the
//     random-walk hot loop becomes a block-local scan instead of random
//     access across the whole graph. The stream is copied into a local for
//     the phase and written back once at its end, and the shard's counters
//     live on cache lines no other shard writes. Then counting-sort the
//     moved walkers into per-destination-shard runs (the same run-packed
//     shape as the ShardedNetwork PackedRow staging);
//   phase B (by destination shard): concatenate the incoming runs in fixed
//     source-shard order into the shard's next bucket and count the
//     per-node loads destination-side (the Lemma 3.2 accounting, exact per
//     node per step, merged to max_load at the phase boundary).
//
// All buffers are hoisted before the step loop — the steady state is
// allocation-free. num_shards = 1 is the historical token-major serial
// stream (the caller's RNG consumed directly, token-index order); see
// ExecPolicy in sim/engine.hpp for the determinism contract.
//
// Results are structure-of-arrays like the network arenas: arrivals are one
// CSR (origins + offsets, no per-node vectors) and recorded paths are one
// flat (tokens × (ℓ+1)) matrix — at Δ/8 tokens per node the per-token-vector
// layout used to cost one allocation per token. The CSR is finalized in
// token-index order regardless of engine: bucket order never leaks into the
// output layout.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "graph/multigraph.hpp"
#include "sim/engine.hpp"

namespace overlay {

/// Result of running all walks of one evolution.
struct TokenWalkResult {
  /// CSR arrivals: ArrivalsAt(v) lists the origins of the tokens located at
  /// v after the final step, in token-index order.
  std::vector<NodeId> arrival_origins;
  std::vector<std::size_t> arrival_offsets;  ///< per node, +1 slot
  /// Token index per arrival, parallel to arrival_origins; filled only when
  /// paths are recorded (it is the arrival→path join key).
  std::vector<std::uint32_t> arrival_token;

  std::span<const NodeId> ArrivalsAt(NodeId v) const {
    return {arrival_origins.data() + arrival_offsets[v],
            arrival_offsets[v + 1] - arrival_offsets[v]};
  }
  std::size_t ArrivalCountAt(NodeId v) const {
    return arrival_offsets[v + 1] - arrival_offsets[v];
  }
  std::span<const std::uint32_t> ArrivalTokensAt(NodeId v) const {
    // Keyed on path_stride (record_paths was requested), not on the join
    // column being non-empty: a run whose tokens all happen to land
    // elsewhere — or a zero-token run — legitimately has an empty bucket.
    OVERLAY_CHECK(path_stride != 0,
                  "arrival->path join requires record_paths");
    return {arrival_token.data() + arrival_offsets[v],
            arrival_offsets[v + 1] - arrival_offsets[v]};
  }

  /// Applies permutation `perm` to node v's arrival bucket in place:
  /// entry i of the bucket becomes the old entry perm[i], for the origins
  /// and — when paths are recorded — the parallel token column in lockstep,
  /// so the arrival→path join cannot be torn apart by a caller permuting
  /// one column and forgetting the other (acceptance selection in
  /// evolution.cpp is the one caller). `perm` must be a permutation of
  /// [0, ArrivalCountAt(v)).
  void PermuteArrivalBucket(NodeId v, std::span<const std::uint32_t> perm);

  /// Maximum number of tokens co-located at any node after any single step
  /// (the Lemma 3.2 load; compare against 3Δ/8).
  std::uint64_t max_load = 0;
  /// Token-step count (= messages the walks would cost in SyncNetwork).
  std::uint64_t token_steps = 0;

  /// When paths are recorded: flat row-major matrix, row i = token i's node
  /// sequence of length ℓ+1 with PathOf(i).front() = origin. Token order
  /// matches `token_origin`.
  std::vector<NodeId> path_nodes;
  std::size_t path_stride = 0;  ///< ℓ+1 when recorded, else 0

  std::size_t num_paths() const {
    return path_stride == 0 ? 0 : path_nodes.size() / path_stride;
  }
  std::span<const NodeId> PathOf(std::size_t i) const {
    return {path_nodes.data() + i * path_stride, path_stride};
  }

  /// Origin of token i (parallel to the path rows when recorded).
  std::vector<NodeId> token_origin;
};

struct TokenWalkOptions {
  std::size_t tokens_per_node = 1;
  std::size_t walk_length = 1;
  /// Record full node sequences (needed by the Theorem 1.3 spanning-tree
  /// unwinding); costs O(tokens · ℓ) memory.
  bool record_paths = false;
  /// Execution context (sim/engine.hpp): num_shards = 1 runs the exact
  /// historical token-major serial stream; above 1 the walker-bucketed
  /// engine keeps one split RNG stream per shard, keyed by shard index, so
  /// a fixed (seed, num_shards) replays bit-identically regardless of
  /// scheduling.
  ExecPolicy exec;
};

/// Runs `tokens_per_node` independent lazy random walks of `walk_length`
/// steps from every node of `g`. Each step picks a uniformly random slot of
/// the token's current node (self-loop slots keep it in place).
TokenWalkResult RunTokenWalks(const Multigraph& g, const TokenWalkOptions& opts,
                              Rng& rng);

/// The token-major serial reference engine: iterates tokens in index order
/// each step, consuming the caller's RNG directly — the exact stream
/// RunTokenWalks produces at num_shards = 1 (`opts.exec` is ignored). Kept
/// as the differential baseline for the walker-bucketed engine and the
/// bench_token_load throughput comparison.
TokenWalkResult RunTokenWalksTokenMajor(const Multigraph& g,
                                        const TokenWalkOptions& opts, Rng& rng);

}  // namespace overlay
