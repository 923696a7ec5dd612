// E4 (Lemma 3.2): no node holds >= 3Δ/8 walk tokens in any round, w.h.p. —
// plus the token engine's throughput per shard count.
//
// Shapes to verify:
//   * max per-round token load stays strictly below the 3Δ/8 acceptance
//     bound across all evolutions and sizes, so no token is ever discarded
//     and every walk creates an edge;
//   * the token-range walk program's walks/sec scale with the shard count.
//
// Throughput knobs: --walkers (total tokens, default 65536), --steps (walk
// length ℓ, default 16), --shards (largest shard count, default 4).
//
// --gate exits non-zero when a check fails: max_token_load < 1.15 × 3Δ/8
// and discard fraction <= 1e-4 on every load row (max_token_load counts
// every intermediate step while acceptance applies only at walk end, so
// the telemetry may peak a token or two above the bound inside the lemma's
// 1/poly(n) failure budget; the ~0 discard fraction is the hard claim),
// and S=2 walks/sec >= S=1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "overlay/benign.hpp"
#include "overlay/create_expander.hpp"
#include "sim/token_engine.hpp"

using namespace overlay;

namespace {

/// Best-of-`reps` wall time of one full walk run, in seconds.
template <typename Fn>
double BestSeconds(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(argc, argv, "bench_token_load");
  const bool gate = bench::HasFlag(argc, argv, "--gate");
  bool failed = false;
  bench::Banner("E4 / Lemma 3.2: token load per round",
                "claim: max load < 3Δ/8 w.h.p. — check max_load below the "
                "bound and the discard *fraction* ~0 (a handful of discards "
                "over tens of millions of token-rounds is within the lemma's "
                "1/poly(n) failure budget)");

  bench::Table t({"n", "Δ", "3Δ/8_bound", "max_token_load", "discarded",
                  "discard_fraction"});
  for (std::size_t n : {256u, 1024u, 4096u, 16384u}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const Graph g = gen::Line(n);
      auto params = ExpanderParams::ForSize(n, g.MaxDegree(), seed);
      const auto run = CreateExpander(MakeBenign(g, params), params);
      std::uint64_t max_load = 0, discarded = 0, tokens = 0;
      for (const auto& trace : run.trace) {
        max_load = std::max(max_load, trace.telemetry.max_token_load);
        discarded += trace.telemetry.tokens_discarded;
        tokens += n * params.TokensPerNode();
      }
      const double bound = static_cast<double>(params.AcceptBound());
      const double discard_fraction =
          static_cast<double>(discarded) / static_cast<double>(tokens);
      t.Row(n, params.delta, params.AcceptBound(), max_load, discarded,
            discard_fraction);
      if (static_cast<double>(max_load) >= 1.15 * bound) {
        std::printf("GATE n=%zu seed=%llu: max load %llu clears 3Δ/8 bound "
                    "%.0f by >15%%\n",
                    n, static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(max_load), bound);
        failed = true;
      }
      if (discard_fraction > 1e-4) {
        std::printf("GATE n=%zu seed=%llu: discard fraction %.2e not ~0\n",
                    n, static_cast<unsigned long long>(seed),
                    discard_fraction);
        failed = true;
      }
    }
  }
  t.Print();
  json.Add("token_load", t);

  // Throughput per shard count. One walk = one token's full ℓ-step
  // trajectory; walks/sec = walkers / best wall time. Every shard count
  // gets one untimed warm-up first, which also grows the pool to S threads,
  // so no timed rep pays a thread spawn.
  const std::size_t kTokensPerNode = 8;
  const std::size_t kReps = 7;
  const std::size_t walkers = bench::SizeFlag(argc, argv, "--walkers", 65536);
  const std::size_t steps = bench::SizeFlag(argc, argv, "--steps", 16);
  const std::size_t shards = bench::SizeFlag(argc, argv, "--shards", 4);
  const std::size_t n = std::max<std::size_t>(1, walkers / kTokensPerNode);
  bench::Banner("token engine throughput per shard count",
                "claim: walks/sec scale with the shard count (gate: S=2 >= "
                "S=1)");
  std::printf("hw_threads=%u\n\n", std::thread::hardware_concurrency());
  const Graph line = gen::Line(n);
  const Multigraph m =
      MakeBenign(line, ExpanderParams::ForSize(n, line.MaxDegree(), 1));
  const auto walk_once = [&](std::size_t s) {
    TokenWalkOptions opts;
    opts.tokens_per_node = kTokensPerNode;
    opts.walk_length = steps;
    opts.exec.num_shards = s;
    Rng rng(1);
    const auto r = RunTokenWalks(m, opts, rng);
    if (r.token_steps != n * kTokensPerNode * steps) std::abort();
  };

  std::vector<std::size_t> shard_counts = {1, 2, shards};
  std::sort(shard_counts.begin(), shard_counts.end());
  shard_counts.erase(std::unique(shard_counts.begin(), shard_counts.end()),
                     shard_counts.end());
  bench::Table tp({"shards", "walkers", "steps", "time_ms", "walks_per_sec",
                   "speedup_vs_s1"});
  double s1_wps = 0.0, s2_wps = 0.0;
  for (const std::size_t s : shard_counts) {
    walk_once(s);  // warm-up
    const double secs = BestSeconds(kReps, [&] { walk_once(s); });
    const double wps = static_cast<double>(n * kTokensPerNode) / secs;
    if (s == 1) s1_wps = wps;
    if (s == 2) s2_wps = wps;
    tp.Row(s, n * kTokensPerNode, steps, secs * 1e3, wps, wps / s1_wps);
  }
  tp.Print();
  json.Add("throughput", tp);
  if (s2_wps < s1_wps) {
    std::printf("GATE: S=2 below S=1: %.0f vs %.0f walks/sec\n", s2_wps,
                s1_wps);
    failed = true;
  }
  const int status = json.Finish();
  if (status != 0) return status;
  return gate && failed ? 1 : 0;
}
