#include "overlay/evolution.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"
#include "sim/token_engine.hpp"

namespace overlay {

EvolutionResult RunEvolution(const Multigraph& g, const ExpanderParams& params,
                             Rng& rng) {
  OVERLAY_CHECK(g.IsRegular(params.delta),
                "evolutions require a Δ-regular (benign) graph");
  const std::size_t n = g.num_nodes();

  TokenWalkOptions walk_opts;
  walk_opts.tokens_per_node = params.TokensPerNode();
  walk_opts.walk_length = params.walk_length;
  walk_opts.record_paths = params.record_paths;
  walk_opts.exec = params.exec;
  TokenWalkResult walks = RunTokenWalks(g, walk_opts, rng);

  EvolutionResult result{Multigraph(n, params.delta), {}, {}};
  result.telemetry.rounds = params.walk_length + 1;  // walks + id replies
  result.telemetry.token_steps = walks.token_steps;
  result.telemetry.max_token_load = walks.max_load;

  // Acceptance selection: over-subscribed endpoints keep a uniformly random
  // subset without replacement (partial Fisher–Yates); the rest is
  // discarded. Each node's selection touches only that node's CSR arrival
  // bucket (origins + the parallel token column when provenance is on), so
  // the selection itself runs sharded — contiguous node blocks on the
  // persistent pool, one split RNG stream per shard (same idiom as the
  // token engine: num_shards = 1 consumes the caller's RNG in the exact
  // historical order; any fixed (seed, num_shards) is deterministic
  // regardless of scheduling).
  //
  // Each shard also emits every kept edge (origin, endpoint), origin !=
  // endpoint, into a list per origin shard, in endpoint-ascending order.
  const std::size_t accept_bound = params.AcceptBound();
  const std::size_t shards = params.exec.ShardsFor(n);
  const std::size_t block = (n + shards - 1) / shards;  // RunShardedBlocks'
  struct KeptEdge {
    NodeId origin;
    NodeId endpoint;
  };
  // kept[s][d]: edges kept by shard s's endpoints whose origin is in
  // shard d's block.
  std::vector<std::vector<std::vector<KeptEdge>>> kept(shards);
  std::vector<std::size_t> keep_count(n);
  std::vector<std::uint64_t> discarded(shards, 0);
  std::vector<Rng> shard_rng;
  if (shards > 1) {
    shard_rng.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) shard_rng.push_back(rng.Split());
  }
  RunShardedBlocks(
      params.exec.Pool(), n, shards,
      [&](std::size_t s, std::size_t lo, std::size_t hi) {
        // Stream, tally and edge lists stay local for the block and are
        // written back once: neighbouring shards' entries share cache lines.
        Rng& stream = shards > 1 ? shard_rng[s] : rng;
        Rng r = stream;
        std::uint64_t dropped = 0;
        std::vector<std::vector<KeptEdge>> out(shards);
        for (std::size_t i = lo; i < hi; ++i) {
          const NodeId v = static_cast<NodeId>(i);
          const std::size_t arrived = walks.ArrivalCountAt(v);
          std::size_t keep = arrived;
          if (keep > accept_bound) {
            // The partial Fisher–Yates runs on an index permutation (same
            // draws, same swap sequence as permuting the bucket directly),
            // then PermuteArrivalBucket applies it to the origins and the
            // token join column in lockstep — the two can no longer be
            // permuted apart.
            std::vector<std::uint32_t> perm(arrived);
            std::iota(perm.begin(), perm.end(), 0u);
            for (std::size_t k = 0; k < accept_bound; ++k) {
              const std::size_t j =
                  k + static_cast<std::size_t>(r.NextBelow(arrived - k));
              std::swap(perm[k], perm[j]);
            }
            walks.PermuteArrivalBucket(v, perm);
            keep = accept_bound;
          }
          keep_count[v] = keep;
          dropped += arrived - keep;
          for (const NodeId origin : walks.ArrivalsAt(v).first(keep)) {
            // A token that returned home would form a loop edge; the
            // self-loop padding restores the degree, so nothing to emit.
            if (origin != v) out[origin / block].push_back({origin, v});
          }
        }
        stream = r;
        discarded[s] = dropped;
        kept[s] = std::move(out);
      });
  for (std::size_t s = 0; s < shards; ++s) {
    result.telemetry.tokens_discarded += discarded[s];
    for (const auto& edges : kept[s]) {
      result.telemetry.reply_messages += edges.size();
      result.telemetry.edges_created += edges.size();
    }
  }

  // Edge establishment and self-loop padding, straight into the rows. Node
  // x's row is what adding every kept edge {v, origin} for v ascending, then
  // padding, would build: the endpoints v < x that kept a token of x
  // (ascending), x's own kept origins in bucket order (skipping x), the
  // endpoints v > x, then self-loops up to Δ. Shard d gathers the edges
  // whose origin it owns by source shard in order, so each origin's
  // endpoints arrive ascending, and fills only its own nodes' rows: any
  // shard count produces the identical graph. Non-loop degrees never exceed
  // Δ/2 (Δ/8 own tokens + 3Δ/8 accepted), so laziness holds by
  // construction; a violation raises from the pool with the serial path's
  // exception type.
  const std::size_t launched = params.TokensPerNode();
  RunShardedBlocks(
      params.exec.Pool(), n, shards,
      [&](std::size_t d, std::size_t lo, std::size_t hi) {
        OVERLAY_CHECK(lo == d * block, "edge lists bucketed by other blocks");
        // by[(x - lo)·launched + k]: the k-th endpoint that kept one of
        // x's tokens; x launched Δ/8 tokens, so Δ/8 entries suffice.
        std::vector<NodeId> by((hi - lo) * launched);
        std::vector<std::uint32_t> count(hi - lo, 0);
        for (std::size_t s = 0; s < shards; ++s) {
          for (const KeptEdge& e : kept[s][d]) {
            const std::size_t at = e.origin - lo;
            by[at * launched + count[at]++] = e.endpoint;
          }
        }
        for (std::size_t i = lo; i < hi; ++i) {
          const NodeId x = static_cast<NodeId>(i);
          const NodeId* const in_lo = by.data() + (i - lo) * launched;
          const NodeId* const in_hi = in_lo + count[i - lo];
          const auto own = walks.ArrivalsAt(x).first(keep_count[x]);
          const std::size_t own_edges = static_cast<std::size_t>(
              own.size() - std::count(own.begin(), own.end(), x));
          OVERLAY_CHECK(
              static_cast<std::size_t>(in_hi - in_lo) + own_edges <=
                  params.delta,
              "accept bound failed to cap the degree");
          const auto row = result.next.ResetSlots(x, params.delta);
          const NodeId* const split = std::lower_bound(in_lo, in_hi, x);
          NodeId* out = std::copy(in_lo, split, row.data());
          for (const NodeId origin : own) {
            if (origin != x) *out++ = origin;
          }
          out = std::copy(split, in_hi, out);
          std::fill(out, row.data() + row.size(), x);
        }
      });

  // Provenance in the serial (endpoint ascending, bucket order) edge order.
  if (params.record_paths) {
    result.provenance.reserve(result.telemetry.edges_created);
    for (NodeId v = 0; v < n; ++v) {
      const auto arrived = walks.ArrivalsAt(v);
      const auto tokens = walks.ArrivalTokensAt(v);
      for (std::size_t i = 0; i < keep_count[v]; ++i) {
        const NodeId origin = arrived[i];
        if (origin == v) continue;
        const auto path = walks.PathOf(tokens[i]);
        EdgeProvenance prov;
        prov.origin = origin;
        prov.endpoint = v;
        prov.path.assign(path.begin(), path.end());
        result.provenance.push_back(std::move(prov));
      }
    }
  }
  return result;
}

}  // namespace overlay
