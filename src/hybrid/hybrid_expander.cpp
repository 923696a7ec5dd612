#include "hybrid/hybrid_expander.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "graph/conductance.hpp"
#include "graph/metrics.hpp"
#include "hybrid/rapid_sampling.hpp"

namespace overlay {

namespace {

/// Preparation: copy each edge `lambda` times, pad with self-loops to Δ.
/// Section 4.1 proposes loop-padding without copying and compensates with
/// ℓ = Θ(Λ²) walks; at practical sizes the un-copied graph leaves low-degree
/// nodes with move probability d/Δ (≈ 1/32 on a line), so we keep the
/// Section 2.1 copying here — it is free in rounds (local knowledge
/// duplication) and preserves every asymptotic claim (see DESIGN.md §4).
Multigraph PrepareBenign(const Graph& h, std::size_t delta,
                         std::size_t lambda) {
  Multigraph g(h.num_nodes(), delta);
  for (const auto& [u, v] : h.EdgeList()) {
    for (std::size_t c = 0; c < lambda; ++c) g.AddEdge(u, v);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    OVERLAY_CHECK(g.Degree(v) <= delta,
                  "hybrid expander requires Δ >= 2·deg(H)·Λ");
    while (g.Degree(v) < delta) g.AddSelfLoop(v);
  }
  return g;
}

}  // namespace

HybridExpanderRun RunHybridExpander(const Graph& h,
                                    const HybridExpanderOptions& opts) {
  const std::size_t n = h.num_nodes();
  OVERLAY_CHECK(n >= 2, "need at least two nodes");
  OVERLAY_CHECK(IsConnected(h), "hybrid expander needs a connected component");
  OVERLAY_CHECK(IsPowerOfTwo(opts.walk_length) && opts.walk_length >= 4,
                "walk length must be a power of two >= 4");

  HybridExpanderRun run;
  const std::size_t d = std::max<std::size_t>(1, h.MaxDegree());
  const std::size_t lambda =
      opts.lambda != 0 ? opts.lambda
                       : std::max<std::size_t>(8, LogUpperBound(n));
  run.delta_used =
      opts.delta != 0
          ? opts.delta
          : std::max<std::size_t>(64, ((2 * d * lambda + 7) / 8) * 8);
  OVERLAY_CHECK(run.delta_used % 8 == 0, "Δ must be a multiple of 8");
  const std::size_t delta = run.delta_used;

  std::size_t evolutions = opts.num_evolutions;
  if (evolutions == 0) {
    // Conductance 1/(Δ·m) worst case grows by ~sqrt(ℓ) per evolution.
    evolutions =
        CeilDiv(2 * LogUpperBound(n), FloorLog2(opts.walk_length)) + 3;
  }

  Rng rng(opts.seed);
  run.final_graph = PrepareBenign(h, delta, lambda);

  RapidSamplingOptions walk_opts;
  walk_opts.walk_length = opts.walk_length;
  walk_opts.record_paths = opts.record_paths;
  walk_opts.exec = opts.exec;
  // Θ(Δℓ) tokens per node so that ~Δ/4 survive; origins then pick Δ/8.
  walk_opts.tokens_per_node = TokensNeededFor(delta / 4, opts.walk_length);

  const std::size_t pick_bound = delta / 8;
  const std::size_t accept_bound = 3 * delta / 8;

  for (std::size_t evo = 0; evo < evolutions; ++evo) {
    RapidSamplingResult walks =
        RunRapidSampling(run.final_graph, walk_opts, rng);
    run.cost += walks.cost;
    run.max_token_load = std::max(run.max_token_load, walks.max_load);

    // Round: survivors return to origins (endpoint id inside).
    // Round: origins pick Δ/8 survivors, notify endpoints; endpoints accept
    // up to 3Δ/8 and reply. (2 rounds total, charged below.)
    std::vector<std::vector<std::size_t>> by_origin(n);
    for (std::size_t i = 0; i < walks.tokens.size(); ++i) {
      by_origin[walks.tokens[i].origin].push_back(i);
    }
    struct Request {
      NodeId origin;
      std::size_t token;
    };
    std::vector<std::vector<Request>> by_endpoint(n);
    for (NodeId v = 0; v < n; ++v) {
      auto& mine = by_origin[v];
      if (mine.size() > pick_bound) {
        for (std::size_t i = 0; i < pick_bound; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng.NextBelow(mine.size() - i));
          std::swap(mine[i], mine[j]);
        }
        mine.resize(pick_bound);
      }
      for (const std::size_t t : mine) {
        const NodeId endpoint = walks.tokens[t].endpoint;
        if (endpoint != v) by_endpoint[endpoint].push_back({v, t});
        ++run.cost.global_messages;
      }
    }

    Multigraph next(n, delta);
    std::vector<EdgeProvenance> provenance;
    for (NodeId v = 0; v < n; ++v) {
      auto& offers = by_endpoint[v];
      if (offers.size() > accept_bound) {
        for (std::size_t i = 0; i < accept_bound; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng.NextBelow(offers.size() - i));
          std::swap(offers[i], offers[j]);
        }
        offers.resize(accept_bound);
      }
      for (const Request& req : offers) {
        next.AddEdge(v, req.origin);
        ++run.cost.global_messages;  // reply
        if (opts.record_paths) {
          EdgeProvenance prov;
          prov.origin = req.origin;
          prov.endpoint = v;
          prov.path = std::move(walks.tokens[req.token].path);
          provenance.push_back(std::move(prov));
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      OVERLAY_CHECK(next.Degree(v) <= delta, "degree cap exceeded");
      while (next.Degree(v) < delta) next.AddSelfLoop(v);
    }

    run.cost.rounds += 2;  // return + pick/reply
    run.final_graph = std::move(next);
    if (opts.record_paths) {
      run.provenance_stack.push_back(std::move(provenance));
    }
    ++run.evolutions_run;

    const double gap = LazySpectralGap(run.final_graph, delta, 200,
                                       opts.seed ^ (evo + 17));
    run.gaps.push_back(gap);
    if (opts.target_spectral_gap > 0.0 && gap >= opts.target_spectral_gap) {
      break;
    }
  }
  run.cost.peak_global_per_node =
      std::max(run.cost.peak_global_per_node, run.max_token_load);
  return run;
}

}  // namespace overlay
