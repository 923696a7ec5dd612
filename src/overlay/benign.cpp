#include "overlay/benign.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "graph/metrics.hpp"
#include "graph/mincut.hpp"

namespace overlay {

Multigraph MakeBenign(const Graph& input, const ExpanderParams& params) {
  params.Validate(input.MaxDegree());
  OVERLAY_CHECK(input.num_nodes() >= 2, "need at least two nodes");

  Multigraph g(input.num_nodes(), params.delta);
  // Step 1: copy each edge Λ times (minimum cut becomes >= Λ).
  for (const auto& [u, v] : input.EdgeList()) {
    for (std::size_t c = 0; c < params.lambda; ++c) {
      g.AddEdge(u, v);
    }
  }
  // Step 2: pad with self-loops to exact degree Δ. Non-loop degree is at most
  // d·Λ <= Δ/2, so every node ends up with >= Δ/2 loops (laziness).
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    OVERLAY_CHECK(g.Degree(v) <= params.delta,
                  "input too dense for Δ; MakeBenign precondition violated");
    while (g.Degree(v) < params.delta) {
      g.AddSelfLoop(v);
    }
  }
  return g;
}

std::string BenignReport::Describe() const {
  std::ostringstream oss;
  oss << "regular=" << (regular ? "yes" : "no")
      << " lazy=" << (lazy ? "yes" : "no")
      << " connected=" << (connected ? "yes" : "no") << " min_cut"
      << (min_cut_exact ? "(exact)=" : "(sampled)=") << min_cut_estimate;
  return oss.str();
}

BenignReport CheckBenign(const Multigraph& g, const ExpanderParams& params,
                         std::size_t exact_cut_limit) {
  BenignReport report;
  report.regular = g.IsRegular(params.delta);
  report.lazy = g.IsLazy(params.MinSelfLoops());
  report.connected = IsConnected(g.ToSimpleGraph());
  if (!report.connected) {
    return report;  // min cut undefined
  }
  if (g.num_nodes() <= exact_cut_limit) {
    report.min_cut_estimate = StoerWagnerMinCut(g);
    report.min_cut_exact = true;
  } else {
    // Karger sampling: an upper-bound witness (capped trials — full
    // certainty would need Θ(n² log n) trials, which is the exact checker's
    // job on small instances).
    const std::size_t trials = std::min<std::size_t>(2 * g.num_nodes(), 200);
    report.min_cut_estimate =
        KargerMinCutSample(g, trials, params.seed ^ 0xabcdefULL);
    report.min_cut_exact = false;
  }
  return report;
}

}  // namespace overlay
