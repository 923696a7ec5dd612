// Tests for a single CreateExpander evolution: invariants, caps, provenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "overlay/benign.hpp"
#include "overlay/evolution.hpp"
#include "sim/shard_pool.hpp"
#include "sim/token_engine.hpp"

namespace overlay {
namespace {

struct Setup {
  Graph input;
  ExpanderParams params;
  Multigraph benign{0};
};

Setup MakeSetup(std::size_t n, std::uint64_t seed = 1) {
  Setup s{gen::Cycle(n), {}, Multigraph{0}};
  s.params = ExpanderParams::ForSize(n, s.input.MaxDegree(), seed);
  s.benign = MakeBenign(s.input, s.params);
  return s;
}

// The evolution as first written, kept as the oracle for the sharded
// accept + pad: acceptance on split per-shard streams, then the serial
// AddEdge loop (endpoint ascending, bucket order), then self-loop padding,
// on a Multigraph(n) that grows row by row.
EvolutionResult ReferenceEvolution(const Multigraph& g,
                                   const ExpanderParams& params, Rng& rng) {
  const std::size_t n = g.num_nodes();
  TokenWalkOptions walk_opts;
  walk_opts.tokens_per_node = params.TokensPerNode();
  walk_opts.walk_length = params.walk_length;
  walk_opts.record_paths = params.record_paths;
  walk_opts.exec = params.exec;
  TokenWalkResult walks = RunTokenWalks(g, walk_opts, rng);

  EvolutionResult result{Multigraph(n), {}, {}};
  result.telemetry.rounds = params.walk_length + 1;
  result.telemetry.token_steps = walks.token_steps;
  result.telemetry.max_token_load = walks.max_load;

  const std::size_t accept_bound = params.AcceptBound();
  std::vector<std::size_t> keep_count(n);
  const auto select_for = [&](NodeId v, Rng& r) -> std::uint64_t {
    const std::size_t arrived = walks.ArrivalCountAt(v);
    std::size_t keep = arrived;
    if (keep > accept_bound) {
      std::vector<std::uint32_t> perm(arrived);
      std::iota(perm.begin(), perm.end(), 0u);
      for (std::size_t i = 0; i < accept_bound; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(r.NextBelow(arrived - i));
        std::swap(perm[i], perm[j]);
      }
      walks.PermuteArrivalBucket(v, perm);
      keep = accept_bound;
    }
    keep_count[v] = keep;
    return arrived - keep;
  };
  const std::size_t shards = params.exec.ShardsFor(n);
  if (shards <= 1) {
    for (NodeId v = 0; v < n; ++v) {
      result.telemetry.tokens_discarded += select_for(v, rng);
    }
  } else {
    std::vector<Rng> shard_rng;
    for (std::size_t s = 0; s < shards; ++s) shard_rng.push_back(rng.Split());
    std::vector<std::uint64_t> discarded(shards, 0);
    RunShardedBlocks(params.exec.Pool(), n, shards,
                     [&](std::size_t s, std::size_t lo, std::size_t hi) {
                       for (std::size_t v = lo; v < hi; ++v) {
                         discarded[s] +=
                             select_for(static_cast<NodeId>(v), shard_rng[s]);
                       }
                     });
    for (const std::uint64_t d : discarded) {
      result.telemetry.tokens_discarded += d;
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    const auto arrived = walks.ArrivalsAt(v);
    const auto tokens = params.record_paths
                            ? walks.ArrivalTokensAt(v)
                            : std::span<const std::uint32_t>{};
    for (std::size_t i = 0; i < keep_count[v]; ++i) {
      const NodeId origin = arrived[i];
      if (origin == v) continue;
      result.next.AddEdge(v, origin);
      ++result.telemetry.reply_messages;
      ++result.telemetry.edges_created;
      if (params.record_paths) {
        const auto path = walks.PathOf(tokens[i]);
        result.provenance.push_back(
            {origin, v, std::vector<NodeId>(path.begin(), path.end())});
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    while (result.next.Degree(v) < params.delta) result.next.AddSelfLoop(v);
  }
  return result;
}

void ExpectSameEvolution(const EvolutionResult& got,
                         const EvolutionResult& want) {
  ASSERT_EQ(got.next.num_nodes(), want.next.num_nodes());
  for (NodeId v = 0; v < want.next.num_nodes(); ++v) {
    const auto a = got.next.Slots(v);
    const auto b = want.next.Slots(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << v;
  }
  const EvolutionTelemetry& a = got.telemetry;
  const EvolutionTelemetry& b = want.telemetry;
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.token_steps, b.token_steps);
  EXPECT_EQ(a.reply_messages, b.reply_messages);
  EXPECT_EQ(a.max_token_load, b.max_token_load);
  EXPECT_EQ(a.tokens_discarded, b.tokens_discarded);
  EXPECT_EQ(a.edges_created, b.edges_created);
  ASSERT_EQ(got.provenance.size(), want.provenance.size());
  for (std::size_t i = 0; i < want.provenance.size(); ++i) {
    EXPECT_EQ(got.provenance[i].origin, want.provenance[i].origin);
    EXPECT_EQ(got.provenance[i].endpoint, want.provenance[i].endpoint);
    EXPECT_EQ(got.provenance[i].path, want.provenance[i].path);
  }
}

TEST(Evolution, MatchesReferenceAtEveryShardCount) {
  // Two cases: the construction's own parameters, and Δ = 8 on a cycle —
  // one token per node against an accept bound of 3, so some nodes are
  // over-subscribed and the Fisher–Yates selection and discards run.
  auto paper = MakeSetup(200, 3);
  auto tight = MakeSetup(300, 2);
  tight.params.delta = 8;
  tight.params.lambda = 1;
  tight.benign = MakeBenign(tight.input, tight.params);
  std::uint64_t discarded = 0;
  for (auto* s : {&paper, &tight}) {
    for (const bool paths : {false, true}) {
      for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "delta " << s->params.delta
                                        << " paths " << paths << " S "
                                        << shards);
        ExpanderParams params = s->params;
        params.record_paths = paths;
        params.exec.num_shards = shards;
        // Three chained evolutions: the later ones walk on graphs the
        // evolution under test built itself.
        Multigraph cur = s->benign;
        Rng got_rng(shards * 31 + 5), want_rng(shards * 31 + 5);
        for (int evo = 0; evo < 3; ++evo) {
          EvolutionResult got = RunEvolution(cur, params, got_rng);
          const EvolutionResult want = ReferenceEvolution(cur, params, want_rng);
          ExpectSameEvolution(got, want);
          discarded += want.telemetry.tokens_discarded;
          cur = std::move(got.next);
        }
        EXPECT_EQ(got_rng.Next(), want_rng.Next());
      }
    }
  }
  EXPECT_GT(discarded, 0u);
}

TEST(Evolution, OutputStaysRegularAndLazy) {
  auto s = MakeSetup(64);
  Rng rng(1);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_TRUE(evo.next.IsRegular(s.params.delta));
  EXPECT_TRUE(evo.next.IsLazy(s.params.MinSelfLoops()));
}

TEST(Evolution, NonLoopDegreeCappedAtHalfDelta) {
  auto s = MakeSetup(64);
  Rng rng(2);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  for (NodeId v = 0; v < evo.next.num_nodes(); ++v) {
    const std::size_t non_loop =
        evo.next.Degree(v) - evo.next.SelfLoopCount(v);
    EXPECT_LE(non_loop, s.params.delta / 2);
  }
}

TEST(Evolution, RequiresRegularInput) {
  auto s = MakeSetup(16);
  Multigraph irregular(4);
  irregular.AddEdge(0, 1);
  Rng rng(3);
  EXPECT_THROW(RunEvolution(irregular, s.params, rng), ContractViolation);
}

TEST(Evolution, TelemetryAccounting) {
  auto s = MakeSetup(32);
  Rng rng(4);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_EQ(evo.telemetry.rounds, s.params.walk_length + 1);
  EXPECT_EQ(evo.telemetry.token_steps,
            32u * s.params.TokensPerNode() * s.params.walk_length);
  EXPECT_EQ(evo.telemetry.reply_messages, evo.telemetry.edges_created);
  EXPECT_GT(evo.telemetry.edges_created, 0u);
}

TEST(Evolution, MaxTokenLoadStaysBelowAcceptBoundWhp) {
  // Lemma 3.2: loads stay below 3Δ/8, so (w.h.p.) nothing is discarded.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto s = MakeSetup(128, seed);
    Rng rng(seed);
    const auto evo = RunEvolution(s.benign, s.params, rng);
    EXPECT_LT(evo.telemetry.max_token_load, s.params.AcceptBound())
        << "seed " << seed;
    EXPECT_EQ(evo.telemetry.tokens_discarded, 0u) << "seed " << seed;
  }
}

TEST(Evolution, ProvenanceMatchesEdges) {
  auto s = MakeSetup(48);
  s.params.record_paths = true;
  Rng rng(6);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_EQ(evo.provenance.size(), evo.telemetry.edges_created);
  const Graph simple = s.benign.ToSimpleGraph();
  for (const EdgeProvenance& p : evo.provenance) {
    ASSERT_EQ(p.path.size(), s.params.walk_length + 1);
    EXPECT_EQ(p.path.front(), p.origin);
    EXPECT_EQ(p.path.back(), p.endpoint);
    EXPECT_NE(p.origin, p.endpoint);
    for (std::size_t i = 0; i + 1 < p.path.size(); ++i) {
      EXPECT_TRUE(p.path[i] == p.path[i + 1] ||
                  simple.HasEdge(p.path[i], p.path[i + 1]));
    }
  }
}

TEST(Evolution, NoProvenanceUnlessRequested) {
  auto s = MakeSetup(32);
  Rng rng(7);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_TRUE(evo.provenance.empty());
}

TEST(Evolution, ShardedFastPathKeepsInvariantsAndDeterminism) {
  // The sharded evolution (walks + acceptance selection + padding on the
  // pool) must preserve every structural invariant and be deterministic
  // for a fixed (seed, num_shards).
  auto s = MakeSetup(96);
  s.params.exec.num_shards = 4;
  Rng rng_a(11);
  Rng rng_b(11);
  const auto a = RunEvolution(s.benign, s.params, rng_a);
  const auto b = RunEvolution(s.benign, s.params, rng_b);
  EXPECT_TRUE(a.next.IsRegular(s.params.delta));
  EXPECT_TRUE(a.next.IsLazy(s.params.MinSelfLoops()));
  EXPECT_EQ(a.telemetry.edges_created, b.telemetry.edges_created);
  EXPECT_EQ(a.telemetry.tokens_discarded, b.telemetry.tokens_discarded);
  EXPECT_EQ(a.telemetry.max_token_load, b.telemetry.max_token_load);
  for (NodeId v = 0; v < 96; ++v) {
    ASSERT_EQ(a.next.Degree(v), b.next.Degree(v));
    const auto sa = a.next.Slots(v);
    const auto sb = b.next.Slots(v);
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
  }
}

TEST(Evolution, ShardedProvenanceMatchesEdges) {
  auto s = MakeSetup(64);
  s.params.record_paths = true;
  s.params.exec.num_shards = 3;
  Rng rng(7);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_EQ(evo.provenance.size(), evo.telemetry.edges_created);
  for (const auto& p : evo.provenance) {
    ASSERT_EQ(p.path.size(), s.params.walk_length + 1);
    EXPECT_EQ(p.path.front(), p.origin);
    EXPECT_EQ(p.path.back(), p.endpoint);
  }
}

TEST(Evolution, DeterministicInRngState) {
  auto s = MakeSetup(32);
  Rng rng1(9), rng2(9);
  const auto a = RunEvolution(s.benign, s.params, rng1);
  const auto b = RunEvolution(s.benign, s.params, rng2);
  EXPECT_EQ(a.telemetry.edges_created, b.telemetry.edges_created);
  for (NodeId v = 0; v < 32; ++v) {
    const auto sa = a.next.Slots(v);
    const auto sb = b.next.Slots(v);
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
  }
}

}  // namespace
}  // namespace overlay
